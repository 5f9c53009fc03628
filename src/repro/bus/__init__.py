"""In-process AMQP-style topic message bus (RabbitMQ substitute)."""

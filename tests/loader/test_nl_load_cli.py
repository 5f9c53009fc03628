"""nl-load CLI flags: tolerant mode, validation, stdin, errors."""
import io

import pytest

from repro.archive import StampedeArchive
from repro.loader.nl_load import main
from repro.model.entities import InvocationRow
from repro.netlogger.stream import write_events

from tests.helpers import diamond_events


class TestNlLoadCli:
    def test_verbose_stats(self, tmp_path, capsys):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        rc = main([str(bp), "-v"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events processed" in out
        assert "events/second" in out
        startup = next(l for l in out.splitlines() if l.startswith("startup cpu s"))
        assert float(startup.split(":")[1]) > 0

    def test_stdin_input(self, tmp_path, monkeypatch, capsys):
        text = "\n".join(e.to_bp() for e in diamond_events()) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        db = tmp_path / "out.db"
        rc = main(["-", "stampede_loader", f"connString=sqlite:///{db}"])
        assert rc == 0
        archive = StampedeArchive.open(f"sqlite:///{db}")
        assert archive.count(InvocationRow) == 4

    def test_unknown_module_rejected(self, tmp_path, capsys):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        with pytest.raises(SystemExit):
            main([str(bp), "other_loader"])

    def test_tolerant_flag(self, tmp_path):
        # out-of-order stream: fails strict, loads tolerantly
        events = diamond_events()
        reordered = events[-10:] + events[:-10]
        bp = tmp_path / "weird.bp"
        write_events(bp, reordered)
        with pytest.raises(Exception):
            main([str(bp)])
        rc = main([str(bp), "--tolerant"])
        assert rc == 0

    def test_validate_flag(self, tmp_path):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        assert main([str(bp), "--validate"]) == 0

    def test_batch_size_flag(self, tmp_path, capsys):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        rc = main([str(bp), "-b", "1", "-v"])
        assert rc == 0
        out = capsys.readouterr().out
        flushes = int(next(l for l in out.splitlines() if "flushes" in l)
                      .split(":")[1])
        assert flushes > 10  # row-at-a-time flushing

    @pytest.mark.parametrize(
        "flags",
        [
            ["-b", "0"],
            ["--shard-dir", "shards", "--shards", "0"],
            ["--chunk-size", "0", "-w", "2"],
            ["--partitions", "0", "--bus", "tcp://127.0.0.1:1"],
        ],
        ids=["batch-size", "shards", "chunk-size", "partitions"],
    )
    def test_zero_counts_are_usage_errors(self, tmp_path, capsys, flags):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        with pytest.raises(SystemExit) as exc:
            main([str(bp), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "nl-load: error:" in err
        assert "must be a positive integer" in err

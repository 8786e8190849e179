"""CLI tests: every subcommand runs and prints what it promises."""

import hashlib

import pytest

from repro.cli import main


class TestCliList:
    def test_lists_protocols(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("cops_snow", "wren", "spanner", "fastclaim"):
            assert name in out


class TestCliTheorem:
    def test_fastclaim_violation(self, capsys):
        assert main(["theorem", "fastclaim", "--max-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "CAUSAL_VIOLATION" in out

    def test_restricted_protocol(self, capsys):
        assert main(["theorem", "cops_snow", "--max-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "NO_MULTI_WRITE" in out
        assert "measured fast" in out  # fast report printed

    def test_general_engine(self, capsys):
        assert (
            main(
                [
                    "theorem",
                    "fastclaim",
                    "--general",
                    "--servers",
                    "3",
                    "--objects",
                    "3",
                    "--max-k",
                    "3",
                ]
            )
            == 0
        )
        assert "CAUSAL_VIOLATION" in capsys.readouterr().out

    def test_protocol_params_forwarded(self, capsys):
        assert (
            main(["theorem", "handshake", "--max-k", "4", "--sync-hops", "1"]) == 0
        )
        out = capsys.readouterr().out
        assert "k=2" in out


class TestCliFigures:
    def test_figure1(self, capsys):
        assert main(["figure", "1"]) == 0
        assert "Q_in" in capsys.readouterr().out

    def test_figure2(self, capsys):
        assert main(["figure", "2"]) == 0
        assert "Construction" in capsys.readouterr().out

    def test_figure3(self, capsys):
        assert main(["figure", "3", "--max-k", "3"]) == 0
        assert "CAUSAL_VIOLATION" in capsys.readouterr().out


class TestCliTable1:
    def test_table1_header_and_every_implemented_row(self, capsys):
        from repro.protocols import REGISTRY

        assert main(["table1", "--txns", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("Table 1")
        header = [c.strip() for c in lines[1].split("|")]
        assert header[:3] == ["System", "paper R", "meas R"]
        assert header[-2:] == ["Consistency", "verified"]
        rows = [line.split("|")[0].strip() for line in lines[3:]]
        assert len(rows) == 17
        assert sorted(rows) == sorted(info.title for info in REGISTRY.values())


class TestCliWorkload:
    def test_workload_characterization(self, capsys):
        rc = main(["workload", "cops_snow", "--txns", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cops_snow" in out and "PASS" in out

    def test_workload_strawman_may_fail(self, capsys):
        rc = main(
            ["workload", "handshake", "--txns", "60", "--sync-hops", "3",
             "--seed", "2"]
        )
        # exit code reflects the consistency verdict either way
        assert rc in (0, 1)


class TestCliCheck:
    def test_check_honest(self, capsys):
        assert main(["check", "wren"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestCliExplore:
    def test_explore_fastclaim_violation(self, capsys):
        rc = main(["explore", "fastclaim", "--por", "--max-depth", "30"])
        out = capsys.readouterr().out
        assert rc == 1  # a violating schedule was found
        assert "[dfs+por]" in out
        assert "violating schedule" in out

    def test_explore_cops_clean(self, capsys):
        rc = main(["explore", "cops", "--por", "--max-depth", "22"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[dfs+por]" in out
        assert "no causal violation in scope" in out

    def test_explore_checker_knob(self, capsys):
        rc = main(
            ["explore", "cops", "--por",
             "--checker", "read-atomic", "--max-depth", "12",
             "--max-states", "3000"]
        )
        assert rc == 0
        assert "[dfs+por]" in capsys.readouterr().out

    def test_explore_rejects_non_por_safe(self):
        with pytest.raises(ValueError, match="not declared POR-safe"):
            main(["explore", "spanner", "--por", "--max-depth", "8"])


class TestCliParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            main(["figure", "9"])


class TestCliTrace:
    def test_trace_renders_lanes(self, capsys):
        assert main(["trace", "cops_snow"]) == 0
        out = capsys.readouterr().out
        assert "invoke" in out and "step" in out and "<~" in out

    def test_trace_wtx_protocol(self, capsys):
        assert main(["trace", "wren"]) == 0
        assert "s0" in capsys.readouterr().out

    #: (lines, blake2b-128) of ``python -m repro trace fastclaim`` in a
    #: fresh process: the diagram cuts exactly the writes' and the read's
    #: events
    FASTCLAIM = (29, "476d11418db8849598f134174520358f")

    @staticmethod
    def _digest(out):
        return out.count("\n"), hashlib.blake2b(out.encode(), digest_size=16).hexdigest()

    def test_trace_fastclaim_is_the_recorded_diagram(self, capsys):
        assert main(["trace", "fastclaim"]) == 0
        assert self._digest(capsys.readouterr().out) == self.FASTCLAIM

    def test_trace_does_not_depend_on_an_earlier_trace(self, capsys):
        """Each store numbers its own txids: a trace run before it in the
        same process leaves the fastclaim diagram as it is."""
        assert main(["trace", "wren"]) == 0
        capsys.readouterr()
        assert main(["trace", "fastclaim"]) == 0
        assert self._digest(capsys.readouterr().out) == self.FASTCLAIM

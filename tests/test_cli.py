"""End-to-end exercises of the command-line surface via main(argv)."""

import hashlib
import json
import re
from pathlib import Path

import pytest
from jsonschema import validate

from shufflesc import automata
from shufflesc.automata import Dfa, Transformation, dump_dfa
from shufflesc.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USER, main
from shufflesc.reach import Certificate, verify_certificate

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "shufflesc" / "fixtures"
SCHEMAS = Path(__file__).resolve().parent.parent / "src" / "shufflesc" / "schemas"


def schema(name):
    return json.loads((SCHEMAS / name).read_text())


@pytest.mark.parametrize("argv", [["bound", "2", "3"], ["reach", "2", "2"]])
def test_json_before_or_after_the_subcommand(argv, capsys):
    outputs = []
    for args in (["--json", *argv], [*argv, "--json"]):
        assert main(args) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        payload.pop("elapsed_seconds", None)
        outputs.append(payload)
    assert outputs[0] == outputs[1]


class TestBound:
    def test_2x3(self, capsys):
        assert main(["bound", "2", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "f(2,3) = 44" in out
        assert "valid subsets counted exhaustively: 44" in out

    def test_1x1(self, capsys):
        assert main(["bound", "1", "1"]) == EXIT_OK
        assert "f(1,1) = 1" in capsys.readouterr().out

    def test_6x6_exact_value(self, capsys):
        assert main(["bound", "6", "6"]) == EXIT_OK
        expected = 2**35 + 2**25 * 31 * 31
        assert f"f(6,6) = {expected}" in capsys.readouterr().out

    def test_json_matches_text(self, capsys):
        main(["bound", "2", "3"])
        text = capsys.readouterr().out
        main(["--json", "bound", "2", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound"] == 44 and payload["valid_subsets"] == 44
        assert str(payload["bound"]) in text


class TestComplexity:
    def test_first_witness_fixture(self, capsys):
        code = main([
            "complexity",
            str(FIXTURES / "witness_2x2_left.json"),
            str(FIXTURES / "witness_2x2_right.json"),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "kappa(K) = 2" in out
        assert "kappa(L) = 2" in out
        assert "kappa(K shuffle L) = 10" in out
        assert "f(2,2) = 10" in out
        assert "bound met" in out

    def test_second_witness_fixture(self, capsys):
        code = main([
            "complexity",
            str(FIXTURES / "witness_2x3_left.json"),
            str(FIXTURES / "witness_2x3_right.json"),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "kappa(K shuffle L) = 44" in out and "bound met" in out

    def test_right_alphabet_in_another_order(self, tmp_path, capsys):
        right = json.loads((FIXTURES / "witness_2x3_right.json").read_text())
        right["alphabet"].reverse()
        (tmp_path / "l.json").write_text(json.dumps(right))
        code = main([
            "complexity", str(FIXTURES / "witness_2x3_left.json"), str(tmp_path / "l.json")
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "kappa(K shuffle L) = 44" in out and "bound met" in out

    def test_bound_not_met_is_success(self, tmp_path, capsys):
        d = Dfa(
            2,
            ("a",),
            (Transformation((2, 1)),),
            frozenset([2]),
        )
        dump_dfa(d, tmp_path / "k.json")
        dump_dfa(d, tmp_path / "l.json")
        code = main([
            "complexity", str(tmp_path / "k.json"), str(tmp_path / "l.json")
        ])
        assert code == EXIT_OK
        assert "bound not met" in capsys.readouterr().out

    def test_unparseable_file_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"states": 2}')
        code = main([
            "complexity", str(bad), str(FIXTURES / "witness_2x2_right.json")
        ])
        assert code == EXIT_USER
        assert "error:" in capsys.readouterr().err

    def test_unknown_field_is_user_error(self, tmp_path, capsys):
        # with "inital" ignored, this loaded with initial state 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"states": 2, "alphabet": ["a"], "inital": 2,
                                   "finals": [2], "transitions": {"a": [2, 1]}}))
        code = main([
            "complexity", str(bad), str(FIXTURES / "witness_2x2_right.json")
        ])
        assert code == EXIT_USER
        assert "inital: unknown field" in capsys.readouterr().err

    def test_missing_file_is_user_error(self, tmp_path):
        assert main([
            "complexity", str(tmp_path / "absent.json"),
            str(FIXTURES / "witness_2x2_right.json"),
        ]) == EXIT_USER


class TestReach:
    def test_3x3_full_alphabet(self, capsys):
        assert main(["reach", "3", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "reached  = 400" in out
        assert "complete = true" in out

    def test_json_validates_and_matches_text(self, capsys):
        main(["reach", "2", "3"])
        text = capsys.readouterr().out
        main(["--json", "reach", "2", "3"])
        payload = json.loads(capsys.readouterr().out)
        validate(payload, schema("reach_report.schema.json"))
        assert payload["reached"] == 44 and payload["complete"] is True
        assert "reached  = 44" in text

    def test_restricted_alphabet_file(self, capsys):
        code = main([
            "reach", "3", "3",
            "--alphabet", str(FIXTURES / "letters_3x3.json"),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "reached  = 400" in out and "complete = true" in out

    def test_workers_option_is_usage_error(self, capsys):
        # BFS runs in one thread, so there is no --workers option
        with pytest.raises(SystemExit) as exc:
            main(["reach", "2", "2", "--workers", "2"])
        assert exc.value.code == 2  # argparse usage failure
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_bad_alphabet_path_is_user_error(self, tmp_path):
        assert main([
            "reach", "2", "2", "--alphabet", str(tmp_path / "nope.json")
        ]) == EXIT_USER

    @pytest.mark.parametrize("letters,message", [
        ([{"s": [1, 1, 1], "t": [2, 3, 1, 4]}, {"s": [2, 1, 3], "t": [1, 1, 1, 1]}],
         "letter 0 .* has degrees \\(3, 4\\), not \\(3, 3\\)"),
        ([{"s": [1, 1], "t": [2, 1, 3]}], "letter 0 .* not \\(3, 3\\)"),
        ([{"s": [1, 1, 1]}], "letter 0 is not"),
    ])
    def test_bad_letter_file_is_user_error(self, tmp_path, capsys, letters, message):
        path = tmp_path / "letters.json"
        path.write_text(json.dumps(letters))
        code = main(["reach", "3", "3", "--alphabet", str(path)])
        assert code == EXIT_USER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match("error: .*" + message, captured.err)

    def test_truncated_letter_file_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "letters.json"
        path.write_text('[{"s": [1, 1], "t": [2, 1]},\n')
        code = main(["reach", "2", "2", "--alphabet", str(path)])
        assert code == EXIT_USER == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: invalid JSON at line 2: ")

    def test_negative_max_generations_is_user_error(self, capsys):
        assert main(["reach", "2", "2", "--max-generations", "-2"]) == EXIT_USER
        captured = capsys.readouterr()
        assert captured.out == "" and "max_generations" in captured.err

    def test_checkpoint_interrupt_and_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        main([
            "--json", "reach", "2", "3",
            "--checkpoint-dir", str(ckpt), "--max-generations", "2",
        ])
        partial = json.loads(capsys.readouterr().out)
        assert partial["complete"] is False
        code = main([
            "--json", "reach", "2", "3",
            "--checkpoint-dir", str(ckpt), "--resume",
        ])
        assert code == EXIT_OK
        resumed = json.loads(capsys.readouterr().out)
        main(["--json", "reach", "2", "3"])
        direct = json.loads(capsys.readouterr().out)
        for report in (resumed, direct):
            report.pop("elapsed_seconds")
        assert resumed == direct


class TestCertify:
    def test_3x3_verified(self, capsys):
        assert main(["certify", "3", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verified: true" in out

    def test_out_file_reloads_and_verifies(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        code = main(["certify", "3", "4", "--out", str(path)])
        assert code == EXIT_OK
        cert = Certificate.from_json(path.read_text())
        assert verify_certificate(cert)

    def test_4x4_out_file_hash(self, tmp_path, capsys):
        # the certificate is deterministic; pin its bytes so a change to the
        # reductions or the table order shows up here
        path = tmp_path / "cert.json"
        assert main(["--json", "certify", "4", "4", "--out", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True and "base_facts" not in payload
        assert set(payload["strategies"].values()) == {"EXHAUSTIVE"}  # none trusted
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "263acccdae033674d3ad961670cf303e39ca8caf97ca49a3223775ff825d6048"
        )

    @pytest.mark.parametrize("m,n", [("0", "0"), ("2", "-1")])
    def test_no_instance_is_user_error(self, m, n, capsys):
        assert main(["certify", m, n]) == EXIT_USER
        captured = capsys.readouterr()
        assert captured.out == "" and "positive" in captured.err

    def test_certification_gap_is_internal_error(self, monkeypatch, capsys):
        import shufflesc.cli as cli
        from shufflesc.reach import CertificationGapError

        def gapped(m, n):
            raise CertificationGapError(["3x3 subset {(1,1)} unjustified"])

        monkeypatch.setattr(cli.reach, "certify", gapped)
        assert main(["certify", "3", "3"]) == EXIT_INTERNAL
        assert "certification gaps" in capsys.readouterr().err

    def test_base_option_is_usage_error(self, capsys):
        # no instance is taken on trust, so there is no --base option
        with pytest.raises(SystemExit) as exc:
            main(["certify", "3", "3", "--base", "3x3"])
        assert exc.value.code == 2  # argparse usage failure
        assert "unrecognized arguments: --base" in capsys.readouterr().err


class TestDistinguish:
    def test_4x5_summary_and_edges(self, capsys):
        assert main(["distinguish", "4", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all 20 states uniquely distinguishable" in out
        assert "subgraph edges: 35" in out
        assert "(1, 1) --c--> (2, 1)" in out
        assert "(2, 4) --a--> (3, 4)" in out

    def test_json_matches_text(self, capsys):
        main(["--json", "distinguish", "4", "5"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_distinguishable"] is True
        assert payload["uniquely_distinguishable"] == 20
        assert len(payload["subgraph_edges"]) == 35

    def test_too_small_is_user_error(self):
        assert main(["distinguish", "1", "5"]) == EXIT_USER


class TestSearch:
    def test_2x2x3_not_met(self, capsys):
        assert main(["search", "2", "2", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "max kappa = 9 (bound 10, not met)" in out

    def test_2x2x4_witness_roundtrip(self, capsys):
        assert main(["--json", "search", "2", "2", "4"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["max"] == 10 and payload["met"] is True
        assert len(payload["witnesses"]) == 1
        pair = payload["witnesses"][0]
        K = automata.dfa_from_dict(pair["left"])
        L = automata.dfa_from_dict(pair["right"])
        assert K.state_count == 2 and L.state_count == 2

    def test_negative_cap_is_user_error(self, capsys):
        assert main(["search", "2", "2", "2", "--cap", "-1"]) == EXIT_USER
        captured = capsys.readouterr()
        assert captured.out == "" and "result_cap" in captured.err

    def test_guard_refusal_is_user_error(self, capsys):
        assert main(["search", "2", "3", "6"]) == EXIT_USER
        assert "" == capsys.readouterr().out


class TestOkhotin:
    def test_n5(self, capsys):
        assert main(["okhotin", "5"]) == EXIT_OK
        assert "kappa(Sigma* shuffle L) = 9 = 2^(5-2)+1" in capsys.readouterr().out

    def test_small_n_is_user_error(self):
        assert main(["okhotin", "2"]) == EXIT_USER

"""tools/digest.py: reproducible digests, and a comparison that names what moved."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
_SPEC = importlib.util.spec_from_file_location("digest", _PATH)
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def test_parse_seeds_expands_ranges():
    assert digest.parse_seeds("1002,2001-2003,22") == [1002, 2001, 2002, 2003, 22]


def test_digest_is_reproducible_and_compare_names_a_planted_difference(tmp_path, capsys):
    a, b, planted = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "planted.json"
    for out in (a, b):
        argv = ["--seeds", "1002", "--realizations", "2000", "--out", str(out)]
        assert digest.main(argv) == 0
    assert a.read_bytes() == b.read_bytes()
    digests = json.loads(a.read_text())
    assert {"validate/1002/exit", "curves/fig1.csv", "curves/fig2.json", "sample-stats/1002.csv",
            "validate/1002", "validate/1002/config",
            "validate/1002/check/counting_mode_consistency"} <= set(digests)

    assert digest.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""
    key = "validate/1002/check/shot_noise_curve"
    digests[key] = "0" * 64
    planted.write_text(json.dumps(digests))
    assert digest.main(["--compare", str(a), str(planted)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{key}: ")

    del digests["curves/fig1.csv"]  # a key on one side only is a difference too
    planted.write_text(json.dumps(digests))
    assert digest.main(["--compare", str(planted), str(b)]) == 1
    assert len(capsys.readouterr().out.splitlines()) == 2

"""The artifact digest script: its pinned CLI runs repeat to the byte, and a
changed byte in any artifact is named."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
_spec = importlib.util.spec_from_file_location("artifact_digests", _SCRIPT)
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)


def test_two_runs_compare_equal_and_a_flipped_byte_is_named(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    found = artifact_digests.run(a)
    assert artifact_digests.run(b) == found
    assert artifact_digests.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"identical: all {len(found)} files"
    # Every run wrote its manifest, and only the timestamps differ between runs.
    assert all(f"{name}/manifest.json" in found for name, _ in artifact_digests._commands())

    artifact = b / "sensitivity" / "sensitivity.json"
    data = bytearray(artifact.read_bytes())
    data[len(data) // 2] ^= 1
    artifact.write_bytes(bytes(data))
    assert artifact_digests.compare(a, b) == ["sensitivity/sensitivity.json"]
    assert artifact_digests.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == ["differs: sensitivity/sensitivity.json"]


def test_compare_reports_the_largest_numeric_move(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, loglik, residual in ((a, -120.0, "0.25"), (b, -120.00006, "0.2500000000000001")):
        (root / "wald").mkdir(parents=True)
        (root / "wald" / "wald.json").write_text(
            '{"fit": {"loglik": %r, "converged": true, "method": "wmle"}, "n": 90}' % loglik)
        (root / "residuals").mkdir()
        (root / "residuals" / "residuals.csv").write_text(f"residual\n1.5\n{residual}\n")
        (root / "residuals" / "residuals.json").write_text('{"method": "%s"}' % root.name)
    assert artifact_digests.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: residuals/residuals.csv (largest relative move 4.4e-16 at line 3 field 1)",
        "differs: residuals/residuals.json (no numeric field moved)",
        "differs: wald/wald.json (largest relative move 5.0e-07 at $.fit.loglik)",
    ]

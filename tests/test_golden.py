"""Golden sha256 digests of every artifact of two small end-to-end runs.

Any refactor that moves a single output byte fails here; a change that is
meant to alter an output format updates these digests and says so. The
tomography digests depend on the floating-point results of the MLE fits; they
were recorded with Python 3.11, numpy 2.4 and scipy 1.17 on x86-64, and a
different numerical stack may legitimately change them.
"""
import hashlib
import json

from entsync.scenario import run_scenario, run_tomo_scenario

SMOKE_DIGESTS = {
    "alice.tt": "1b92f5fff5d72583aca8e0aff56f445893f3d6365665b639e2130c5f475f17c4",
    "bob.tt": "04a8ba124906a80f377c1abbb0653e9b7a8c3b94c56f20de6a5a7fe50170f5e1",
    "estimates.json": "9028ee805ae4b909bd08e25b5bcd28e80fe8f01a251b696e2cabd48de13990ac",
    "g2_block_000.csv": "5079e23e07f8aa3620101944dab299df878123b30f03300d02197294435a0f29",
    "g2_block_001.csv": "2b45c9860339a19277d8e5253878d88da79cc86bbf83bf56a883f3612d235a4c",
    "summary.json": "6299d9609d85b9f7f29557502134e179591c90a65ec9e8d637878a06aa6f3f8a",
}

SMALL_TOMO_CONFIG = {"seed": 42, "attack": "none", "counts_per_setting": 2000.0, "reps": 4}

SMALL_TOMO_DIGESTS = {
    "counts_after.csv": "18d9b9d6ce15d48127ce750b5796271f87e707fdba498c0eed0a070fd631695c",
    "counts_before.csv": "d634a79e92857e1361f138def6ead7666c2e09f3645109e3b29b98af5e52df07",
    "fidelity_distribution.json": (
        "bf83e5b2a6497144922ad1b315d362316216c175d94c6d61385b3c6b86502684"
    ),
    "rho_after.json": "fc02cd62ea3df052e5c7df318bf133a25c92cb39dcd9ce418961c87fd9eff6c1",
    "rho_before.json": "366eb27c66c3f0f89dcf3d592563c308d30fbb95ef9a77c8af3243aac4e2a7ed",
    "summary.json": "235267d7a1622bd61eca95c94eb0d2f84e796020f8efa1fedb7f4138cce9511c",
}


def dir_digest(path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def test_smoke_scenario_artifacts_match_golden(scenario_dir, tmp_path):
    run_scenario(scenario_dir / "smoke.json", tmp_path / "smoke")
    assert dir_digest(tmp_path / "smoke") == SMOKE_DIGESTS


def test_small_tomo_artifacts_match_golden(tmp_path):
    config = tmp_path / "tomo.json"
    config.write_text(json.dumps(SMALL_TOMO_CONFIG))
    run_tomo_scenario(config, tmp_path / "tomo")
    assert dir_digest(tmp_path / "tomo") == SMALL_TOMO_DIGESTS

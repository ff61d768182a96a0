import sys
import time

import run


def test_a_hung_child_is_killed_and_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    start = time.perf_counter()
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path)
    assert time.perf_counter() - start < 10
    assert child.exit_code == -9
    assert run.check_outputs(tmp_path, child, None) == ["exit code -9: "]

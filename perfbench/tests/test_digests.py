import json

from compare import main as compare_main
from digests import canonical, compare_digests, sha256_of


def test_digest_ignores_dict_order_and_tuple_keys():
    a = {(1, 2): ("x", 3), "b": [1, 2], "a": None}
    b = {"a": None, "b": (1, 2), (1, 2): ["x", 3]}
    assert sha256_of(a) == sha256_of(b)
    assert sha256_of(a) != sha256_of({**a, "a": 0})
    assert canonical({"k": 1}) == [["k", 1]]


def test_compare_digests_lists_differences():
    a = {"RCC/bfs": "1", "RCC/dlb": "2", "MESI/bfs": "3"}
    b = {"RCC/bfs": "1", "RCC/dlb": "9", "TCS/bfs": "4"}
    assert compare_digests(a, b) == {
        "differ": ["RCC/dlb"], "only_a": ["MESI/bfs"], "only_b": ["TCS/bfs"]}
    assert compare_digests(a, dict(a)) == {
        "differ": [], "only_a": [], "only_b": []}


def _result_file(tmp_path, name, digests):
    path = tmp_path / name
    path.write_text(json.dumps({
        "workload": "sc-sharing", "digests": digests,
        "provenance": {"seed": 1, "git_sha": "unknown"}}))
    return str(path)


def test_compare_cli_exit_codes(tmp_path, capsys):
    a = _result_file(tmp_path, "a.json", {"RCC/bfs": "1", "RCC/dlb": "2"})
    b = _result_file(tmp_path, "b.json", {"RCC/bfs": "1", "RCC/dlb": "3"})
    assert compare_main([a, a]) == 0
    assert compare_main([a, b]) == 1
    assert "DIFFERS  RCC/dlb" in capsys.readouterr().out

import concurrent.futures
import json
import subprocess
import sys
from fractions import Fraction

from rootproj import cli, output
from rootproj.catalog import build_from_name, parse_label, parse_target
from rootproj.cli import main
from rootproj.detect import (ClosureCertificate, ComponentWitness,
                             DetectionReport, find_subsystem, revalidate)
from rootproj.projection import project_all


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "rootproj.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_project_e8_census_line():
    code, out, _ = run_cli("project", "--sigma", "E8", "--theta", "8")
    assert code == 0
    assert "norm-class 2 count 126" in out


def test_project_a3_lists_six_vectors():
    code, out, _ = run_cli("project", "--sigma", "A3", "--theta", "2")
    assert code == 0
    assert "sigma_theta: 6 vectors" in out


def test_project_improper_theta_usage_error():
    code, _, err = run_cli("project", "--sigma", "A3", "--theta", "1,2,3")
    assert code == 2
    assert "proper" in err


def test_project_improper_allowed_with_flag():
    code, out, _ = run_cli("project", "--sigma", "A3", "--theta", "1,2,3",
                           "--allow-improper-theta")
    assert code == 0
    assert "sigma_theta: 0 vectors" in out


def test_detect_found_and_json_schema(tmp_path):
    code, out, _ = run_cli("detect", "--sigma", "E8", "--theta", "2,5,7",
                           "--target", "F4xA1", "--restricted",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "rootproj/1"
    assert doc["sigma"] == "E8"
    assert doc["theta"] == [2, 5, 7]
    assert doc["d"] == 5
    rep = doc["reports"][0]
    assert rep["found"] is True and rep["restricted"] is True
    assert rep["closure_size"] == 50
    assert all(isinstance(x, str) for v in rep["basis"] for x in v)


def test_detect_unrestricted_vs_restricted():
    code, out, _ = run_cli("detect", "--sigma", "E8", "--theta", "8",
                           "--target", "E7")
    assert code == 0 and "found" in out
    code, out, _ = run_cli("detect", "--sigma", "E8", "--theta", "8",
                           "--target", "E7", "--restricted")
    assert code == 0 and "not-found" in out


def test_detect_rank_mismatch_usage_error():
    code, _, err = run_cli("detect", "--sigma", "F4", "--theta", "1,2",
                           "--target", "F4")
    assert code == 2
    assert "rank" in err


def test_detect_bad_label_usage_error():
    code, _, _ = run_cli("detect", "--sigma", "Q3", "--theta", "1",
                         "--target", "A1")
    assert code == 2


def test_verify_paper_f4_exit_zero():
    code, out, _ = run_cli("verify-paper", "--sigma", "F4")
    assert code == 0
    assert "PASS" in out


def test_verify_paper_classical_usage_error():
    code, _, _ = run_cli("verify-paper", "--sigma", "A5")
    assert code == 2


def test_enumerate_g2_stream(tmp_path):
    out_file = tmp_path / "g2.jsonl"
    code, _, _ = run_cli("enumerate", "--sigma", "G2", "--format", "json",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 2
    docs = [json.loads(l) for l in lines]
    assert [d["theta"] for d in docs] == [[1], [2]]
    assert all(d["schema"] == "rootproj/1" for d in docs)


def test_enumerate_parallel_matches_serial(tmp_path):
    f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("enumerate", "--sigma", "B3", "--format", "json",
                   "--out", str(f1))[0] == 0
    assert run_cli("enumerate", "--sigma", "B3", "--format", "json",
                   "--out", str(f2), "--jobs", "2")[0] == 0
    assert f1.read_text() == f2.read_text()


def test_enumerate_csv_columns(tmp_path):
    out_file = tmp_path / "f4.csv"
    code, _, _ = run_cli("enumerate", "--sigma", "F4", "--format", "csv",
                         "--out", str(out_file))
    assert code == 0
    header = out_file.read_text().splitlines()[0]
    assert header.split(",") == output.CSV_COLUMNS


def test_round_trip_detection_doc():
    # the JSON alone is checkable evidence: rebuild the certificate from
    # it with Fraction and parse_label, then revalidate it
    pr = project_all(build_from_name("E6"), (1, 3, 5, 6))
    rep = find_subsystem(pr, parse_target("G2"), restrict_to_delta_theta=True)
    doc = output.detection_doc(pr.system.label, pr.theta, pr.d, [rep])
    data = json.loads(json.dumps(doc))
    assert (data["sigma"], tuple(data["theta"]), data["d"]) == \
        ("E6", (1, 3, 5, 6), 2)
    (report,) = data["reports"]

    def vec(items):
        return tuple(Fraction(x) for x in items)

    target = parse_target(report["target"])
    cert = ClosureCertificate(target, tuple(
        ComponentWitness(parse_label(w["label"]),
                         tuple(vec(v) for v in w["basis"]),
                         frozenset(vec(v) for v in w["roots"]))
        for w in report["components"]))
    back = DetectionReport(target, report["found"], report["restricted"],
                           report["basis_from_delta_theta"], cert)
    assert back == rep
    assert revalidate(back.certificate, pr.sigma_theta_set)


def test_main_direct_exit_codes():
    assert main(["project", "--sigma", "A3", "--theta", "2"]) == 0
    assert main(["project", "--sigma", "A3", "--theta", "7"]) == 2


def test_byte_determinism(tmp_path):
    runs = []
    for i in range(2):
        f = tmp_path / f"run{i}.jsonl"
        run_cli("enumerate", "--sigma", "B4", "--format", "json", "--out", str(f))
        runs.append(f.read_bytes())
    assert runs[0] == runs[1]


def test_detect_text_and_csv_lines(capsys):
    # both formats are rendered from the JSON document's report dicts
    argv = ["detect", "--sigma", "F4", "--theta", "1,2", "--target", "G2",
            "--restricted"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "sigma=F4 theta=1,2 d=2",
        "  target G2: found (restricted) closure_size=12 "
        "basis_from_delta_theta=true",
        "    basis (0, 1/3, 1/3, 1/3)",
        "    basis (1/2, -1/2, -1/2, -1/2)",
    ]
    assert main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "sigma,theta,d,target,restricted,found,basis_from_delta_theta,"
        "closure_size,basis\r\n"
        'F4,"1,2",2,G2,true,true,true,12,'
        '"(0,1/3,1/3,1/3) (1/2,-1/2,-1/2,-1/2)"\r\n')


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.txt"
    for argv in (["project", "--sigma", "A3", "--theta", "2"],
                 ["enumerate", "--sigma", "G2"]):
        assert main(argv + ["--out", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err


def test_enumerate_rejects_jobs_below_one(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(cli, "_one_record", no_work)
    for jobs in ("0", "-1"):
        assert main(["enumerate", "--sigma", "G2", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err


def test_enumerate_refuses_an_oversized_system(monkeypatch, capsys):
    # A40 has 2^40 - 2 proper theta: refused from the rank alone, before
    # any subset is listed or classified
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "classify_theta", no_work)
    monkeypatch.setattr(cli, "proper_subsets", no_work)
    assert main(["enumerate", "--sigma", "A40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--force" in err and str(2 ** 40 - 2) in err


def test_enumerate_force_lifts_the_limit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_ENUMERATE_THETAS", 1)
    assert main(["enumerate", "--sigma", "A2", "--format", "json"]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["enumerate", "--sigma", "A2", "--format", "json",
                 "--force"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


def test_serial_enumerate_does_not_load_multiprocessing():
    code = ("import sys; from rootproj.cli import main; "
            "main(['enumerate', '--sigma', 'G2', '--format', 'json']); "
            "sys.exit('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 2


def test_public_names_resolve():
    # a stale entry in __all__ breaks ``from rootproj import *``
    import rootproj

    missing = [name for name in rootproj.__all__ if not hasattr(rootproj, name)]
    assert not missing
    namespace = {}
    exec("from rootproj import *", namespace)
    assert set(rootproj.__all__) <= set(namespace)

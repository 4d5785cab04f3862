import pathlib

import pytest

from guessnum import cli, cyclic, digraph as dg, netcode


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["k3"] = str(tmp_path / "k3.dg")
    dg.write_digraph(dg.clique(3), paths["k3"])
    paths["c4"] = str(tmp_path / "c4.dg")
    dg.write_digraph(dg.cycle(4), paths["c4"])
    paths["butterfly"] = str(tmp_path / "butterfly.nc")
    netcode.write_instance(netcode.butterfly(), paths["butterfly"])
    paths["bottleneck"] = str(tmp_path / "bottleneck.nc")
    netcode.write_instance(netcode.bottleneck(3, 2), paths["bottleneck"])
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


class TestCommands:
    def test_guess_clique(self, files, capsys):
        code, out = run(capsys, "guess", files["k3"], "-s", "2")
        assert code == 0
        assert out == "alpha=4 g=2.000"

    def test_guess_machine_records(self, files, capsys):
        code, out = run(capsys, "guess", files["k3"], "-s", "2", "--machine")
        assert code == 0
        assert out.splitlines() == ["alpha=4", "g=2.000"]

    def test_guess_witness_file(self, files, capsys):
        witness = str(files["tmp"] / "fix.txt")
        code, out = run(capsys, "guess", files["k3"], "-s", "2", "--witness", witness)
        assert code == 0
        codes = [int(line) for line in pathlib.Path(witness).read_text().split()]
        assert codes == [0, 3, 5, 6]

    def test_guess_protocol_tables(self, files, capsys):
        proto = str(files["tmp"] / "proto.txt")
        code, _ = run(capsys, "guess", files["k3"], "-s", "2", "--protocol", proto)
        assert code == 0
        text = pathlib.Path(proto).read_text().splitlines()
        assert text[0] == "n 3 s 2"
        assert text[1] == "0: 1,2 | 0110"

    def test_guess_protocol_beyond_two_to_the_sixteen(self, files, capsys):
        # 17 disjoint 2-cycles: alpha = 2^17
        pairs = str(files["tmp"] / "pairs.dg")
        dg.write_digraph(dg.Digraph(34, [(u, u ^ 1) for u in range(34)]), pairs)
        proto = str(files["tmp"] / "pairs.txt")
        code, out = run(capsys, "guess", pairs, "-s", "2", "--protocol", proto)
        assert code == 0
        assert f"protocol_path={proto}" in out
        text = pathlib.Path(proto).read_text().splitlines()
        assert text[:3] == ["n 34 s 2", "0: 1 | 01", "1: 0 | 01"]
        # the 2^17 fixed codes are listed one 2-cycle at a time, not
        # over all 2^34 configurations: both ends of each cycle agree
        code, _ = run(capsys, "guess", pairs, "-s", "2", "--witness", proto + ".w")
        assert code == 0
        codes = [int(line) for line in pathlib.Path(proto + ".w").read_text().split()]
        assert len(codes) == 2**17 and codes[:4] == [0, 3, 12, 15]
        even = sum(1 << u for u in range(0, 34, 2))
        assert codes == sorted(codes)
        assert all((c ^ c >> 1) & even == 0 for c in codes)

    def test_linear_pipeline_matches_generated_digraph(self, files, capsys):
        p7 = str(files["tmp"] / "p7.dg")
        code, _ = run(capsys, "cyclic-gen", "--poly", "11101", "-n", "7", "-o", p7)
        assert code == 0
        code, out = run(capsys, "linear", p7, "-p", "2")
        assert code == 0
        assert "g_linear=4" in out

    def test_linear_sparse_non_divisor(self, files, capsys):
        # x^5 + x^2 + 1 on 12 vertices needs the exhaustive pattern search
        sparse = str(files["tmp"] / "sparse.dg")
        code, _ = run(capsys, "cyclic-gen", "--poly", "x5+x2+1", "-n", "12", "-o", sparse)
        assert code == 0
        code, out = run(capsys, "linear", sparse, "-p", "2")
        assert code == 0
        assert out == "g_linear=4 exact=true"

    def test_cyclic_gen_report(self, files, capsys):
        code, out = run(capsys, "cyclic-gen", "--poly", "11101", "-n", "7", "--machine")
        assert code == 0
        records = dict(line.split("=", 1) for line in out.splitlines())
        assert records["divides"] == "true"
        assert records["mas"] == "3"
        assert records["fixed_space_dimension"] == "4"
        assert records["tournament"] == "true"

    def test_defect(self, files, capsys):
        code, out = run(capsys, "defect", files["k3"], "-s", "2")
        assert code == 0
        assert out.startswith("chi=2 b=1.000")

    def test_bounds_keys_are_stable(self, files, capsys):
        code, out = run(capsys, "bounds", files["c4"], "-s", "2")
        assert code == 0
        keys = [line.split("=", 1)[0] for line in out.splitlines()]
        assert keys == sorted(keys, key=keys.index)  # deterministic order
        assert "g_upper.mas_cover" in keys
        assert "g_lower" in keys and "g_upper" in keys

    def test_bounds_on_a_long_cycle_list_the_degree(self, capsys, tmp_path):
        path = str(tmp_path / "c40.dg")
        dg.write_digraph(dg.cycle(40), path)
        code, out = run(capsys, "bounds", path, "-s", "2")
        assert code == 0
        keys = [line.split("=", 1)[0] for line in out.splitlines()]
        assert "g_lower.graph_degree" in keys
        assert not [k for k in keys if k.startswith("skipped.")]

    def test_mas(self, files, capsys):
        code, out = run(capsys, "mas", files["c4"])
        assert code == 0
        assert out == "mas=3 exact=true witness=0,1,2"

    def test_netcode_solve_butterfly(self, files, capsys):
        code, out = run(capsys, "netcode-solve", files["butterfly"], "-s", "2")
        assert code == 0
        assert "solvable=true" in out
        assert "z sends" in out

    def test_netcode_solve_paper_instance_beyond_the_guard(self, files, capsys):
        # x^11+x^9+x^7+x^6+x^5+x+1 at n = 23, split at a maximum acyclic
        # set: 2^23 configurations, decided by linear algebra
        d = cyclic.digraph_from_polynomial(cyclic.parse_poly("x^11+x^9+x^7+x^6+x^5+x+1"), 23)
        path = str(files["tmp"] / "golay.nc")
        netcode.write_instance(netcode.from_digraph(d, dg.mas_exact(d).witness), path)
        code, out = run(capsys, "netcode-solve", path, "-s", "2", "--machine")
        assert code == 0
        assert out.splitlines() == ["solvable=true", "pairs=11", "g=11.000", "defect_matches=true"]

    def test_netcode_solve_bottleneck(self, files, capsys):
        code, out = run(capsys, "netcode-solve", files["bottleneck"], "-s", "2")
        assert code == 0  # an unsolvable verdict is still a result
        assert "solvable=false" in out

    def test_netcode_convert_both_ways(self, files, capsys):
        merged = str(files["tmp"] / "bf.dg")
        code, _ = run(capsys, "netcode-convert", files["butterfly"], "--to-digraph", "-o", merged)
        assert code == 0
        assert dg.read_digraph(merged) == dg.clique(3)
        back = str(files["tmp"] / "bf.nc")
        code, out = run(capsys, "netcode-convert", merged, "-o", back)
        assert code == 0
        inst = netcode.read_instance(back)
        assert inst.n_pairs == 2

    def test_product_union_expand_thm3(self, files, capsys):
        out_dg = str(files["tmp"] / "out.dg")
        code, out = run(capsys, "product", files["c4"], files["c4"], "-o", out_dg)
        assert code == 0 and "n=16" in out
        code, out = run(capsys, "union", "--kind", "disjoint", files["k3"], files["c4"], "-o", out_dg)
        assert code == 0 and "n=7" in out
        code, out = run(capsys, "expand", files["c4"], "-k", "2", "-o", out_dg)
        assert code == 0 and "n=8" in out
        code, out = run(capsys, "thm3", "-l", "3", "-k", "1", "-m", "2", "-o", out_dg)
        assert code == 0 and "girth=3" in out

    def test_simplex_and_family(self, files, capsys):
        code, out = run(capsys, "simplex", "-l", "3")
        assert code == 0 and "n=7" in out and "poly=11101" in out
        code, out = run(capsys, "family", "--kind", "three_t", "--t", "5")
        assert code == 0 and "n=15" in out

    def test_gg_export(self, files, capsys):
        out_path = str(files["tmp"] / "gg.txt")
        code, out = run(capsys, "gg-export", files["k3"], "-s", "2", "-o", out_path)
        assert code == 0 and "configs=8" in out


class TestExitCodes:
    def test_size_guard_is_three(self, files, capsys):
        code, _ = run(capsys, "guess", files["k3"], "-s", "9999999")
        assert code == 3

    def test_invalid_input_is_four(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.dg"
        bad.write_text("3\n0 0\n")
        code, _ = run(capsys, "guess", str(bad), "-s", "2")
        assert code == 4

    def test_missing_file_is_four(self, files, capsys):
        code, _ = run(capsys, "mas", "does-not-exist.dg")
        assert code == 4

    def test_directory_input_is_four(self, capsys, tmp_path):
        code = cli.main(["guess", str(tmp_path), "-s", "2"])
        err = capsys.readouterr().err.strip()
        assert code == 4
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["guess", "netcode-solve"])
    def test_undecodable_input_is_four(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe3\n")
        code = cli.main([command, str(bad), "-s", "2"])
        err = capsys.readouterr().err.strip()
        assert code == 4
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_usage_error_is_two(self, files):
        with pytest.raises(SystemExit) as exc:
            cli.main(["guess"])  # missing digraph argument
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["three\n", "3\n0 x\n"])
    def test_malformed_digraph_number_is_four(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.dg"
        bad.write_text(text)
        code, _ = run(capsys, "guess", str(bad), "-s", "2")
        assert code == 4

    @pytest.mark.parametrize("poly", ["x-1", "xa", "x^"])
    def test_malformed_polynomial_is_four(self, capsys, poly):
        code, _ = run(capsys, "cyclic-gen", "--poly", poly, "-n", "7")
        assert code == 4

    def test_malformed_intermediates_is_four(self, files, capsys):
        out = str(files["tmp"] / "out.nc")
        code, _ = run(capsys, "netcode-convert", files["c4"],
                      "--intermediates", "a,b", "-o", out)
        assert code == 4

    @pytest.mark.parametrize("command", ["bounds", "report"])
    def test_empty_digraph_bounds(self, capsys, tmp_path, command):
        empty = tmp_path / "empty.dg"
        empty.write_text("0\n")
        code, out = run(capsys, command, str(empty), "-s", "2")
        assert code == 0
        assert "skipped.row_count=digraph is empty" in out

    def test_bad_family_params_is_four(self, files, capsys):
        code, _ = run(capsys, "family", "--kind", "three_t", "--t", "6")
        assert code == 4

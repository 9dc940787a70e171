"""Instance file parsing and the command-line front end."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from multispace import (
    AmbientId,
    GeneratorConfig,
    MultiVectorSpace,
    OperationPolicy,
    ParseError,
    SemanticError,
    format_instance,
    full_subspace,
    parse_instance,
    random_instance,
)
from multispace import cli as cli_module
from multispace import search as search_module
from multispace.cli import main

THREE_LINES = """\
# three distinct lines of the binary plane
policy TOTAL
ambient A p=2 n=2
space V1 in A gen 1,0
space V2 in A gen 0,1
space V3 in A gen 1,1
"""

MINIMAL = "policy TOTAL\nambient A p=2 n=2\nspace V1 in A gen 1,0\n"

# the 15 lines of GF(2)^4, one component per nonzero vector
FIFTEEN_LINES = "policy TOTAL\nambient A p=2 n=4\n" + "".join(
    f"space V{i} in A gen {','.join(map(str, v))}\n"
    for i, v in enumerate(product((0, 1), repeat=4))
    if any(v)
)

VALIDATE_NOTE = (
    "scalar axiom checked in its distributive reading (k1+k2)*a = k1*a + k2*a; "
    "the reading that adds a scalar to a vector is not well-typed for "
    "coordinate vectors and is recorded here instead of being checked"
)

VALIDATE_FIXTURES = {
    "gf2_three": (
        "policy TOTAL\nambient A p=2 n=3\n"
        "space V1 in A gen 1,0,0; 0,1,0\n"
        "space V2 in A gen 0,1,0; 0,0,1\n"
        "space V3 in A gen 1,1,1\n"
    ),
    "gf3_lines": (
        "policy CLOSED\nambient A p=3 n=2\n"
        "space V1 in A gen 1,0\n"
        "space V2 in A gen 1,1\n"
        "space V3 in A gen 1,2\n"
    ),
    "two_ambients": (
        "policy TOTAL\nambient A p=2 n=2\nambient B p=3 n=2\n"
        "space V1 in A gen 1,0\n"
        "space V2 in A gen 0,1; 1,1\n"
        "space V3 in B gen 1,2\n"
        "space V4 in B gen 0,1\n"
    ),
    # under CLOSED, (e1 + e2) + e3 exists (in V3) but e1 + (e2 + e3) does not
    "gf2_planes": (
        "policy CLOSED\nambient A p=2 n=3\n"
        "space V1 in A gen 1,0,0; 0,1,0\n"
        "space V2 in A gen 0,1,0; 0,0,1\n"
        "space V3 in A gen 1,1,0; 0,0,1\n"
    ),
}

# (closure, associativity, distributivity) check counts printed by
# `multispace validate` when the checks were still enumerated one by one
VALIDATE_RECORDED = [
    ("gf2_three", "TOTAL", (56, 343, 28)),
    ("gf2_three", "CLOSED", (56, 127, 28)),
    ("gf3_lines", "TOTAL", (54, 343, 63)),
    ("gf3_lines", "CLOSED", (54, 79, 63)),
    ("two_ambients", "TOTAL", (68, 189, 61)),
    ("two_ambients", "CLOSED", (68, 117, 61)),
    ("gf2_planes", "TOTAL", (72, 343, 28)),
    ("gf2_planes", "CLOSED", (72, 169, 28)),
]

# instances at large primes whose components share generators, so their meets
# are nontrivial and inclusion-exclusion can overshoot the greedy basis
LARGE_P_FIXTURES = {
    "gf101_a": (
        "policy TOTAL\nambient A p=101 n=4\n"
        "space V1 in A gen 47,77,60,80\n"
        "space V2 in A gen 24,91,60,69\n"
        "space V3 in A gen 70,60,50,81; 30,75,69,16\n"
        "space V4 in A gen 47,77,60,80\n"
        "space V5 in A gen 74,8,77,1\n"
    ),
    "gf101_b": (
        "policy TOTAL\nambient A p=101 n=4\n"
        "space V1 in A gen 74,8,77,1\n"
        "space V2 in A gen 24,91,60,69; 60,33,70,29\n"
        "space V3 in A gen 60,33,70,29; 24,91,60,69\n"
        "space V4 in A gen 47,77,60,80; 74,8,77,1\n"
    ),
    "m31_a": (
        "policy TOTAL\nambient A p=2147483647 n=4\n"
        "space V1 in A gen 1256437082,875262509,1254671178,499046146; "
        "209281550,77065967,291990909,1062754042\n"
        "space V2 in A gen 828641474,1232704445,753574530,1146977644; "
        "465975918,554010463,2073352804,1443197553\n"
        "space V3 in A gen 828641474,1232704445,753574530,1146977644; "
        "1256437082,875262509,1254671178,499046146\n"
        "space V4 in A gen 1256437082,875262509,1254671178,499046146\n"
        "space V5 in A gen 1256437082,875262509,1254671178,499046146\n"
    ),
    "m31_b": (
        "policy TOTAL\nambient A p=2147483647 n=4\n"
        "space V1 in A gen 936650469,1672830881,1345716944,1836582957; "
        "209281550,77065967,291990909,1062754042\n"
        "space V2 in A gen 646448839,904409541,1089296008,1789878482\n"
        "space V3 in A gen 209281550,77065967,291990909,1062754042; "
        "936650469,1672830881,1345716944,1836582957\n"
        "space V4 in A gen 646448839,904409541,1089296008,1789878482\n"
    ),
}

# stdout of `multispace dim` and `compare` on those files, recorded when the
# intersection was still taken from the stacked Zassenhaus reduction
LARGE_P_RECORDED = [
    (["dim", "gf101_a"], "greedy=4 inclusion-exclusion=5 agree=no\n"),
    (["dim", "gf101_b"], "greedy=4 inclusion-exclusion=4 agree=yes\n"),
    (["dim", "m31_a"], "greedy=4 inclusion-exclusion=4 agree=yes\n"),
    (["dim", "m31_b"], "greedy=3 inclusion-exclusion=3 agree=yes\n"),
    (
        ["compare", "gf101_a", "--other", "gf101_b"],
        "dim-union=4 dim-first=4 dim-second=4 dim-intersection=3 additive=5 agree=no\n",
    ),
    (
        ["compare", "gf101_b", "--other", "gf101_a"],
        "dim-union=4 dim-first=4 dim-second=4 dim-intersection=3 additive=5 agree=no\n",
    ),
    (
        ["compare", "m31_a", "--other", "m31_b"],
        "dim-union=4 dim-first=4 dim-second=3 dim-intersection=1 additive=6 agree=no\n",
    ),
]


CHECK_FIXTURES = {
    "gf2_two_lines": (
        "policy CLOSED\nambient A p=2 n=2\nspace V1 in A gen 1,0\nspace V2 in A gen 0,1\n"
    ),
    "gf2_three_lines": THREE_LINES,
    "gf2_plane": "policy TOTAL\nambient A p=2 n=2\nspace V1 in A gen 1,0; 0,1\n",
    "two_ambients": (
        "policy TOTAL\nambient A p=2 n=2\nambient B p=3 n=2\n"
        "space V1 in A gen 1,0\n"
        "space V2 in A gen 0,1\n"
        "space V3 in B gen 1,2\n"
        "space V4 in B gen 0,1; 1,0\n"
    ),
    "two_ambients_sub": (
        "policy CLOSED\nambient A p=2 n=2\nambient B p=3 n=2\n"
        "space W1 in A gen 1,0\n"
        "space W2 in B gen 1,2\n"
    ),
    "gf3_plane": "policy TOTAL\nambient B p=3 n=2\nspace V1 in B gen 1,0; 0,1\n",
}

CAP_8_ERROR = "error: 9 vectors exceed the cap of 8\n"

# (parent, candidate, extra flags) -> (exit code, stdout, stderr) of
# `multispace check-subspace`, recorded when the criterion still looped over
# every alpha*a + b of the candidate
CHECK_RECORDED = [
    (("gf2_two_lines", "gf2_two_lines"), (0, "subspace=yes\n", "")),
    (("gf2_two_lines", "gf2_two_lines", "--policy", "TOTAL"), (0, "subspace=no\n", "")),
    (("gf2_plane", "gf2_three_lines"), (0, "subspace=yes\n", "")),
    (("gf2_plane", "gf2_two_lines", "--policy", "CLOSED"), (0, "subspace=no\n", "")),
    (("gf2_three_lines", "gf2_two_lines", "--policy", "TOTAL"), (0, "subspace=no\n", "")),
    (("gf2_three_lines", "gf2_two_lines", "--policy", "CLOSED"), (0, "subspace=yes\n", "")),
    (("two_ambients", "two_ambients_sub"), (0, "subspace=yes\n", "")),
    (("two_ambients", "two_ambients_sub", "--policy", "CLOSED"), (0, "subspace=yes\n", "")),
    (("two_ambients", "gf2_two_lines", "--policy", "TOTAL"), (0, "subspace=no\n", "")),
    (("two_ambients", "gf3_plane", "--policy", "CLOSED"), (0, "subspace=yes\n", "")),
    (("gf2_plane", "gf3_plane"), (0, "subspace=no\n", "")),
    (("gf2_plane", "gf2_three_lines", "--cap", "8"), (0, "subspace=yes\n", "")),
    (("two_ambients", "gf3_plane", "--cap", "8"), (2, "", CAP_8_ERROR)),
    (("gf2_plane", "gf3_plane", "--cap", "8"), (2, "", CAP_8_ERROR)),
]


@st.composite
def canonical_text(draw):
    """Instance text as format_instance writes it: spaces V1..Vk with RREF
    generators (possibly none), ambients in the order spaces first use them."""
    labels = draw(
        st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
                 min_size=1, max_size=3, unique=True)
    )
    shapes = [
        (draw(st.sampled_from([2, 3, 5, 7, 101, 2**31 - 1])), draw(st.integers(0, 4)))
        for _ in labels
    ]
    uses = draw(st.permutations(
        list(range(len(labels))) + draw(st.lists(st.sampled_from(range(len(labels))), max_size=3))
    ))
    order = list(dict.fromkeys(uses))
    lines = [f"policy {draw(st.sampled_from(['TOTAL', 'CLOSED']))}"]
    lines += [f"ambient {labels[a]} p={shapes[a][0]} n={shapes[a][1]}" for a in order]
    for i, a in enumerate(uses, 1):
        p, n = shapes[a]
        pivots = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else [])
        rows = []
        for pivot in pivots:
            row = [0] * n
            row[pivot] = 1
            for j in range(pivot + 1, n):
                if j not in pivots:
                    row[j] = draw(st.integers(0, p - 1))
            rows.append(",".join(map(str, row)))
        gens = "; ".join(rows)
        lines.append(f"space V{i} in {labels[a]} gen" + (f" {gens}" if gens else ""))
    return "\n".join(lines)


class TestParseInstance:
    def test_minimal_file(self):
        instance = parse_instance(MINIMAL)
        assert len(instance.components) == 1
        assert instance.components[0].dim == 1
        assert instance.policy is OperationPolicy.TOTAL

    def test_three_lines_file(self):
        instance = parse_instance(THREE_LINES)
        assert len(instance.components) == 3
        assert all(c.dim == 1 for c in instance.components)

    def test_crlf_and_comments(self):
        text = "policy CLOSED\r\nambient A p=3 n=1  # inline\r\n\r\nspace V in A gen 2\r\n"
        instance = parse_instance(text)
        assert instance.policy is OperationPolicy.CLOSED
        assert instance.components[0].ambient.p == 3

    def test_multiple_generators(self):
        text = "policy TOTAL\nambient A p=2 n=3\nspace V in A gen 1,0,0; 0,1,0 ; 1,1,0\n"
        assert parse_instance(text).components[0].dim == 2

    def test_empty_generator_list(self):
        text = "policy TOTAL\nambient A p=2 n=2\nspace Z in A gen\nspace V in A gen 1,0\n"
        instance = parse_instance(text)
        assert instance.components[0].dim == 0

    def test_wrong_vector_length(self):
        text = "policy TOTAL\nambient A p=2 n=2\nspace V in A gen 1,0,1\n"
        with pytest.raises(SemanticError) as err:
            parse_instance(text)
        assert err.value.line == 3

    def test_out_of_range_residue(self):
        text = "policy TOTAL\nambient A p=2 n=2\nspace V in A gen 1,2\n"
        with pytest.raises(SemanticError) as err:
            parse_instance(text)
        assert err.value.line == 3

    def test_negative_residue(self):
        with pytest.raises(SemanticError):
            parse_instance("policy TOTAL\nambient A p=3 n=1\nspace V in A gen -1\n")

    def test_non_prime_modulus(self):
        text = "policy TOTAL\nambient A p=6 n=2\nspace V in A gen 1,0\n"
        with pytest.raises(SemanticError) as err:
            parse_instance(text)
        assert err.value.line == 2

    def test_unknown_ambient(self):
        text = "policy TOTAL\nambient A p=2 n=2\nspace V in B gen 1,0\n"
        with pytest.raises(SemanticError) as err:
            parse_instance(text)
        assert err.value.line == 3

    def test_unknown_policy(self):
        with pytest.raises(ParseError) as err:
            parse_instance("policy SOMETIMES\n")
        assert (err.value.line, err.value.col) == (1, 8)

    def test_missing_policy(self):
        with pytest.raises(ParseError):
            parse_instance("ambient A p=2 n=2\nspace V in A gen 1,0\n")

    def test_ambient_after_space(self):
        text = "policy TOTAL\nambient A p=2 n=2\nspace V in A gen 1,0\nambient B p=2 n=2\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 4

    def test_duplicate_policy(self):
        with pytest.raises(ParseError):
            parse_instance("policy TOTAL\npolicy TOTAL\n")

    def test_duplicate_ambient_label(self):
        text = "policy TOTAL\nambient A p=2 n=2\nambient A p=2 n=2\n"
        with pytest.raises(SemanticError):
            parse_instance(text)

    def test_no_spaces(self):
        with pytest.raises(ParseError):
            parse_instance("policy TOTAL\nambient A p=2 n=2\n")

    def test_unknown_directive_column(self):
        with pytest.raises(ParseError) as err:
            parse_instance("policy TOTAL\nambient A p=2 n=2\n   junk here\n")
        assert (err.value.line, err.value.col) == (3, 4)

    def test_bad_integer_column(self):
        with pytest.raises(ParseError) as err:
            parse_instance("policy TOTAL\nambient A p=2 n=2\nspace V in A gen 1,x\n")
        assert err.value.line == 3
        assert err.value.col == 20

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("policy TOTAL\nambient A p=+3 n=2\n", 2, 13),
            ("policy TOTAL\nambient A p=1_1 n=2\n", 2, 13),
            ("policy TOTAL\nambient A p=３ n=2\n", 2, 13),
            ("policy TOTAL\nambient A p=2 n=2\nspace V in A gen ١,0\n", 3, 18),
            ("policy TOTAL\nambient A p=2 n=2\nspace V in A gen 1, +1\n", 3, 21),
        ],
    )
    def test_integers_are_ascii_digits(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert "expected an integer" in str(err.value)

    @pytest.mark.parametrize(
        "text,line,col",
        [
            pytest.param("policy TOTAL\nambient\u3000A p=2 n=2\n", 2, 8, id="ideographic-space"),
            pytest.param("policy TOTAL\nambient A\xa0p=2 n=2\n", 2, 10, id="no-break-space"),
            pytest.param("policy\vTOTAL\n", 1, 7, id="vertical-tab"),
            pytest.param("policy\fTOTAL\n", 1, 7, id="form-feed"),
            pytest.param("policy TOTAL\x1cambient A p=2 n=2\n", 1, 13, id="file-separator"),
            pytest.param("policy TOTAL\x1dambient A p=2 n=2\n", 1, 13, id="group-separator"),
            pytest.param("policy TOTAL\x1eambient A p=2 n=2\n", 1, 13, id="record-separator"),
            pytest.param("policy TOTAL\x85ambient A p=2 n=2\n", 1, 13, id="next-line"),
            pytest.param("policy TOTAL\u2028ambient A p=2 n=2\n", 1, 13, id="line-separator"),
            pytest.param("policy TOTAL\u2029ambient A p=2 n=2\n", 1, 13, id="paragraph-separator"),
            pytest.param("policy TOTAL\rambient A p=2 n=2\n", 1, 13, id="lone-carriage-return"),
            pytest.param("policy TOTAL\r\r\n", 1, 13, id="two-carriage-returns"),
            pytest.param(
                "policy TOTAL\nambient A p=2 n=2\nspace V in A gen 1,\u20030\n", 3, 20,
                id="em-space-in-vector",
            ),
        ],
    )
    def test_only_spaces_and_tabs_separate(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert "unexpected whitespace" in str(err.value)

    def test_tabs_and_whitespace_in_comments(self):
        text = "policy\tTOTAL # \u3000\v\n\tambient A p=2 n=2\nspace V in A gen\t1,\t0\n"
        instance = parse_instance(text)
        assert instance == parse_instance(MINIMAL)

    def test_malformed_battery_never_crashes(self):
        bad = [
            "",
            "policy",
            "policy TOTAL CLOSED",
            "ambient A p=2 n=2",
            "policy TOTAL\nambient\n",
            "policy TOTAL\nambient A p=x n=2\n",
            "policy TOTAL\nambient A q=2 n=2\n",
            "policy TOTAL\nambient A p=2 n=2\nspace V A gen 1,0\n",
            "policy TOTAL\nambient A p=2 n=2\nspace V in A gen 1,;\n",
            "policy TOTAL\nambient A p=2 n=2\nspace V in A gen ;\n",
            "policy TOTAL\nambient A p=2 n=-1\n",
            "policy TOTAL\nambient 9A p=2 n=2\n",
            "space V in A gen 1,0",
        ]
        for text in bad:
            with pytest.raises((ParseError, SemanticError)):
                parse_instance(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=120))
    def test_fuzz_total_on_garbage(self, text):
        try:
            parse_instance(text)
        except (ParseError, SemanticError):
            pass

    def test_round_trip(self):
        cfg = GeneratorConfig(seed=55)
        for draw in range(50):
            instance = random_instance(cfg, draw)
            assert parse_instance(format_instance(instance)) == instance

    @settings(max_examples=200, deadline=None)
    @given(canonical_text())
    def test_canonical_text_round_trips(self, text):
        assert format_instance(parse_instance(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_every_ambient_label_round_trips(self, label):
        # the other direction: whatever label an ambient takes, its file reads back
        try:
            ambient = AmbientId(label, 2, 1)
        except ValueError:
            return
        instance = MultiVectorSpace((full_subspace(ambient),), OperationPolicy.TOTAL)
        assert parse_instance(format_instance(instance)) == instance


@pytest.fixture
def three_lines_file(tmp_path):
    path = tmp_path / "three_lines.ms"
    path.write_text(THREE_LINES)
    return str(path)


@pytest.fixture
def minimal_file(tmp_path):
    path = tmp_path / "minimal.ms"
    path.write_text(MINIMAL)
    return str(path)


class TestCommands:
    def test_dim_single_component(self, tmp_path, capsys):
        path = tmp_path / "full.ms"
        path.write_text(
            "policy TOTAL\nambient A p=2 n=3\nspace V in A gen 1,0,0; 0,1,0; 0,0,1\n"
        )
        assert main(["dim", str(path)]) == 0
        assert capsys.readouterr().out == "greedy=3 inclusion-exclusion=3 agree=yes\n"

    def test_dim_three_lines_disagrees_with_exit_zero(self, three_lines_file, capsys):
        assert main(["dim", three_lines_file]) == 0
        assert capsys.readouterr().out == "greedy=2 inclusion-exclusion=3 agree=no\n"

    def test_dim_past_twelve_components(self, tmp_path, capsys):
        # the lines meet pairwise in 0: 120 subset meets, within the cap
        path = tmp_path / "lines.ms"
        path.write_text(FIFTEEN_LINES)
        assert main(["dim", str(path)]) == 0
        assert capsys.readouterr().out == "greedy=4 inclusion-exclusion=15 agree=no\n"

    def test_basis_output(self, three_lines_file, capsys):
        assert main(["basis", three_lines_file]) == 0
        assert capsys.readouterr().out == "A 1,0\nA 1,1\n"

    def test_validate_output(self, minimal_file, capsys):
        assert main(["validate", minimal_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("components=1 policy=TOTAL\n")
        assert "valid=yes" in out

    @pytest.mark.parametrize("name,policy,counts", VALIDATE_RECORDED)
    def test_validate_recorded(self, tmp_path, capsys, name, policy, counts):
        path = tmp_path / f"{name}.ms"
        path.write_text(VALIDATE_FIXTURES[name])
        assert main(["validate", "--policy", policy, str(path)]) == 0
        captured = capsys.readouterr()
        closure, assoc, dist = counts
        components = VALIDATE_FIXTURES[name].count("\nspace ")
        assert captured.out == (
            f"components={components} policy={policy}\n"
            f"component-closure=ok checks={closure}\n"
            f"cross-associativity=ok checks={assoc}\n"
            f"scalar-distributivity=ok checks={dist}\n"
            f"note: {VALIDATE_NOTE}\n"
            "valid=yes\n"
        )
        assert captured.err == ""

    def test_file_line_ends_reach_the_parser(self, tmp_path, capsys):
        crlf = tmp_path / "crlf.ms"
        crlf.write_bytes(THREE_LINES.replace("\n", "\r\n").encode())
        assert main(["dim", str(crlf)]) == 0
        assert capsys.readouterr().out == "greedy=2 inclusion-exclusion=3 agree=no\n"
        lone_cr = tmp_path / "cr.ms"
        lone_cr.write_bytes(MINIMAL.replace("\n", "\r").encode())
        assert main(["dim", str(lone_cr)]) == 1
        assert "line 1, col 13: unexpected whitespace" in capsys.readouterr().err

    def test_policy_override(self, three_lines_file, capsys):
        assert main(["dim", "--policy", "CLOSED", three_lines_file]) == 0
        assert capsys.readouterr().out == "greedy=3 inclusion-exclusion=3 agree=yes\n"

    def test_check_subspace_yes(self, tmp_path, capsys):
        parent = tmp_path / "parent.ms"
        parent.write_text("policy TOTAL\nambient A p=2 n=2\nspace V in A gen 1,0; 0,1\n")
        candidate = tmp_path / "cand.ms"
        candidate.write_text("policy TOTAL\nambient A p=2 n=2\nspace W in A gen 1,1\n")
        assert main(["check-subspace", str(parent), "--candidate", str(candidate)]) == 0
        assert capsys.readouterr().out == "subspace=yes\n"

    def test_check_subspace_no(self, tmp_path, capsys):
        parent = tmp_path / "parent.ms"
        parent.write_text("policy TOTAL\nambient A p=2 n=2\nspace V in A gen 1,0\n")
        candidate = tmp_path / "cand.ms"
        candidate.write_text("policy TOTAL\nambient A p=2 n=2\nspace W in A gen 0,1\n")
        assert main(["check-subspace", str(parent), "--candidate", str(candidate)]) == 0
        assert capsys.readouterr().out == "subspace=no\n"

    def test_compare(self, tmp_path, capsys):
        first = tmp_path / "first.ms"
        first.write_text("policy TOTAL\nambient A p=2 n=2\nspace V in A gen 1,0\n")
        second = tmp_path / "second.ms"
        second.write_text("policy TOTAL\nambient A p=2 n=2\nspace W in A gen 0,1\n")
        assert main(["compare", str(first), "--other", str(second)]) == 0
        assert capsys.readouterr().out == (
            "dim-union=2 dim-first=1 dim-second=1 dim-intersection=0 additive=2 agree=yes\n"
        )

    @pytest.mark.parametrize("argv, out", LARGE_P_RECORDED)
    def test_large_prime_recorded(self, tmp_path, capsys, argv, out):
        for name, text in LARGE_P_FIXTURES.items():
            (tmp_path / f"{name}.ms").write_text(text)
        paths = [str(tmp_path / f"{a}.ms") if a in LARGE_P_FIXTURES else a for a in argv]
        assert main(paths) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("args, recorded", CHECK_RECORDED)
    def test_check_subspace_recorded(self, tmp_path, capsys, args, recorded):
        for name, text in CHECK_FIXTURES.items():
            (tmp_path / f"{name}.ms").write_text(text)
        parent, candidate, *flags = args
        argv = ["check-subspace", str(tmp_path / f"{parent}.ms")]
        argv += ["--candidate", str(tmp_path / f"{candidate}.ms"), *flags]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == recorded

    def test_parser_built_once(self, monkeypatch, three_lines_file, capsys):
        # a run of calls on one parser prints what the same calls print on
        # fresh parsers: no option value or usage error carries over
        runs = [
            ["dim", "--policy", "CLOSED", three_lines_file],
            ["dim", three_lines_file],
            ["check-subspace", three_lines_file],
            ["basis", three_lines_file],
        ]

        def call(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in runs:
            cli_module._parser.cache_clear()
            fresh.append(call(argv))
        builds = []
        build = cli_module._build_parser

        def counting_build():
            builds.append(1)
            return build()

        cli_module._parser.cache_clear()
        monkeypatch.setattr(cli_module, "_build_parser", counting_build)
        assert [call(argv) for argv in runs] == fresh
        assert len(builds) == 1
        assert [code for code, _, _ in fresh] == [0, 0, 1, 0]
        assert fresh[0][1] != fresh[1][1]

    def test_search_deterministic_in_process(self, capsys):
        assert main(["search", "--trials", "50", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["search", "--trials", "50", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
        assert first.rstrip().splitlines()[-1].startswith("trials=50 findings=")

    def test_search_skips_over_cap_draws(self, monkeypatch, capsys):
        # the 9 basis rows of GF(5)^9 take 2,441,405 search steps, over the cap
        over_cap = MultiVectorSpace(
            (full_subspace(AmbientId("A", 5, 9)),), OperationPolicy.CLOSED
        )
        drawn = search_module.random_instance

        def draw(cfg, i):
            return over_cap if i == 1 else drawn(cfg, i)

        monkeypatch.setattr(search_module, "random_instance", draw)
        assert main(["search", "--trials", "80", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(search_module, "random_instance", drawn)
        assert main(["search", "--trials", "80", "--seed", "3"]) == 0
        plain = capsys.readouterr().out
        head, summary = plain.rstrip("\n").rsplit("\n", 1)
        assert "skipped" not in summary
        # draw 1 of seed 3 agrees, so only the summary line differs
        assert out == f"{head}\n{summary} skipped=1\n"

    def test_search_blocks_parse_back(self, capsys):
        assert main(["search", "--trials", "80", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        blocks = [b for b in out.split("\n\n") if b.startswith("discrepancy")]
        for block in blocks[:5]:
            header, *body = block.splitlines()
            instance = parse_instance("\n".join(line.strip() for line in body))
            assert instance is not None


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["dim", "/nonexistent/path.ms"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ms"
        path.write_text("policy MAYBE\n")
        assert main(["dim", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_semantic_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ms"
        path.write_text("policy TOTAL\nambient A p=4 n=2\nspace V in A gen 1,0\n")
        assert main(["dim", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_cap_exceeded(self, minimal_file, capsys):
        assert main(["validate", "--cap", "1", minimal_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert main(["check-subspace", "file.ms"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        # only validate and check-subspace enumerate under a cap
        ["dim", "--cap", "0", "{file}"],
        ["basis", "--cap", "729", "{file}"],
        ["compare", "--cap", "729", "{file}", "--other", "{file}"],
        ["search", "--cap", "729"],
        ["validate", "--cap", "0", "{file}"],
        ["validate", "--cap", "-1", "{file}"],
        ["validate", "--cap", "x", "{file}"],
        ["check-subspace", "--cap", "0", "{file}", "--candidate", "{file}"],
        ["search", "--trials", "-3"],
        ["search", "--trials", "1.5"],
        # integers as the instance grammar writes them: ASCII digits, optional '-'
        ["search", "--trials", "1_0"],
        ["search", "--trials", "+2"],
        ["search", "--trials", " 2"],
        ["search", "--trials", "2", "--seed", "\u0663"],
        ["search", "--trials", "2", "--seed", "1_0"],
        ["validate", "--cap", "\u0663", "{file}"],
        ["validate", "--cap", "+5", "{file}"],
    ])
    def test_bad_flags_are_usage_errors(self, minimal_file, capsys, argv):
        assert main([arg.format(file=minimal_file) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_cap_and_trials_bounds_accepted(self, minimal_file, capsys):
        # V1 has 2 elements: a cap of 2 holds it, and a cap of 1 is an overrun
        assert main(["check-subspace", "--cap", "2", minimal_file, "--candidate", minimal_file]) == 0
        assert capsys.readouterr().out == "subspace=yes\n"
        assert main(["check-subspace", "--cap", "1", minimal_file, "--candidate", minimal_file]) == 2
        assert capsys.readouterr().err == "error: 2 vectors exceed the cap of 1\n"
        assert main(["search", "--trials", "0"]) == 0
        assert capsys.readouterr().out == "trials=0 findings=0\n"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

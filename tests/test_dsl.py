from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetflow import (DiffPoly, EpsPoly, EvolutionSystem, Functional,
                     ModelError, ParseError, PseudoDiffOp, ResourceLimit,
                     UnknownName, compose, parse_model, print_model)
from jetflow import dsl
from jetflow.fixtures import FIXTURES, load_fixture
from jetflow.printing import format_operator, format_poly

from conftest import (P, diff_polys, model_texts, monomials, nonlocal_ops,
                      rationals)


def test_parse_system_matches_handbuilt():
    model = parse_model("system gardner { rhs: 6*(u + eps*u^2)*u_x - u_xxx; }")
    ctx = model.context
    u, u1, u3, eps = ctx.u(0), ctx.u(1), ctx.u(3), ctx.eps
    assert model.systems["gardner"].rhs == 6 * (u + eps * u ** 2) * u1 - u3


def test_parse_operator_matches_handbuilt():
    model = parse_model(
        "operator E { 4*u*Dx + 2*u_x + 3*eps*(u*u_x + u^2*Dx) - Dx^3 }")
    ctx = model.context
    u, u1, eps = ctx.u(0), ctx.u(1), ctx.eps
    Dx = PseudoDiffOp.dx(1)
    expected = (4 * u * Dx + (2 * u1 + 3 * eps * u * u1) * PseudoDiffOp.identity(1)
                + 3 * eps * u ** 2 * Dx - PseudoDiffOp.dx(1, 3))
    assert model.operators["E"] == expected


def test_nonlocal_operator_expression():
    model = parse_model("operator R { u*Dxi*u_x - Dx^2 }")
    op = model.operators["R"]
    assert len(op.nonlocal_terms) == 1
    ctx = model.context
    a, b = op.nonlocal_terms[0]
    assert a == ctx.u(0) and b == ctx.u(1)


def test_indexed_jets_and_density():
    model = parse_model("density H = u{5}*u + u_xxxx^2/2;")
    ctx = model.context
    assert model.densities["H"].density == ctx.u(5) * ctx.u(0) + ctx.u(4) ** 2 / 2


def test_unknown_name_has_position():
    with pytest.raises(UnknownName) as err:
        parse_model("char bad = u_y;")
    assert err.value.name == "u_y"
    assert err.value.line == 1
    assert err.value.column == 12


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_model("system s { rhs: u_x }")  # missing semicolon
    assert err.value.line == 1
    assert ";" in err.value.expected


def test_parse_error_cases():
    cases = [
        "char a = u +;",                     # dangling operator
        "char a = 2 ^ u;",                   # non-integer exponent
        "char a = u / u;",                   # division by a non-constant
        "char a = u / 0;",                   # division by zero
        "char a = (u;",                      # unbalanced parenthesis
        "density d = Dx;",                   # operator where a poly is needed
        "system s { rhs: u_x; } char s = u;",  # duplicate name
        "char u = u;",                       # reserved name
        "char u_xx = u^2; char Q = u_xx;",   # a name that spells a jet
        "density u_x = u;",                  # a name that spells a jet
        "set speed = 3;",                    # unknown setting
        "char a = u; set eps_order = 2;",    # setting after declarations
        "char a = u{};",                     # malformed jet index
        "char a = 3 $ 4;",                   # stray character
    ]
    for source in cases:
        with pytest.raises(ParseError):
            parse_model(source)


CLOSURE = "composition of two nonlocal operators leaves the class: (Dxi) o (Dxi)"


@pytest.mark.parametrize("source, message", [
    ("system s { rhs: u_x }", "line 1, column 21: found '}' (expected ;)"),
    ("operator A { Dx; u }", "line 1, column 18: found 'u' (expected })"),
    ("operator A {\n  Dx u }", "line 2, column 6: found 'u' (expected })"),
    ("operator A { Dx;",
     "line 1, column 17: unexpected end of input (expected })"),
    ("system s { rhs: Dx; }", "line 1, column 19: system right-hand side "
     "must be a differential polynomial, not an operator"),
    ("char a = Dx;", "line 1, column 12: characteristic "
     "must be a differential polynomial, not an operator"),
    ("density d = u*Dx;", "line 1, column 17: density "
     "must be a differential polynomial, not an operator"),
    ("system s { rhs: u_x; }\nchar s = u;",
     "line 2, column 6: name 's' is already declared"),
    ("char u = u;", "line 1, column 6: 'u' is reserved"),
    ("char u_xx = u^2;", "line 1, column 6: 'u_xx' is reserved"),
    ("set speed = 3;", "line 1, column 5: unknown setting 'speed' "
     "(expected eps_order, max_jet_order)"),
    ("char a = u;\nset eps_order = 2;",
     "line 2, column 5: set eps_order must precede all declarations"),
    ("chars a = u;", "line 1, column 1: found 'chars' "
     "(expected char, density, operator, set, system)"),
    ("char a = Dxi^2;", f"line 1, column 13: {CLOSURE}"),      # at the caret
    ("char a = Dxi*Dxi;", f"line 1, column 17: {CLOSURE}"),    # after it
    ("operator A { u + Dxi^2 }", f"line 1, column 21: {CLOSURE}"),
], ids=["system-no-semicolon", "operator-semicolon", "operator-no-semicolon",
        "operator-eof", "operator-in-system", "operator-in-char",
        "operator-in-density", "duplicate", "reserved", "spelt-jet",
        "unknown-setting", "late-eps-order", "unknown-word", "closure-power",
        "closure-product", "closure-power-in-operator"])
def test_parse_error_messages(source, message):
    with pytest.raises(ParseError) as err:
        parse_model(source)
    assert str(err.value) == message


DIVISION = "division only by nonzero rational constants"


@pytest.mark.parametrize("source, message, line, column", [
    ("char a = u / 0;", DIVISION, 1, 15),
    ("char a = u / u;", DIVISION, 1, 15),
    ("operator A { Dx/0 }", DIVISION, 1, 19),
    ("char a = u/(2*eps);", DIVISION, 1, 19),
    ("density T = u^2;\nchar a = T/T;", DIVISION, 2, 13),
    ("operator A { u/Dx }", "division only by rational constants", 1, 19),
], ids=["by-zero", "by-jet", "operator-by-zero", "by-eps", "by-density",
        "by-operator"])
def test_division_errors_are_placed_after_the_divisor(source, message, line,
                                                      column):
    with pytest.raises(ParseError) as err:
        parse_model(source)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


# Four lines with CRLF endings, '#' comment lines and tabs; a tab is one
# column and '\r' ends no line.
CRLF_HEAD = "# head\r\n\tchar a = u_x;\r\n# c\r\n\tchar b = \tu"


@pytest.mark.parametrize("tail, error, line, column, message", [
    (" + ;\r\n", ParseError, 4, 16, "found ';' (expected an expression)"),
    (" + q;", UnknownName, 4, 16, "unknown name 'q'"),
    ("", ParseError, 4, 13, "unexpected end of input (expected ;)"),
    (" $", ParseError, 4, 14, "unexpected character '$'"),
    ("{99};", ResourceLimit, 4, 12, "jet order 99 exceeds the cap 64"),
    (";\r\n\r\n\t# c\r\n char", ParseError, 7, 6,
     "unexpected end of input (expected ident)"),
], ids=["last-line", "unknown-name", "eof", "stray-character", "jet-cap",
        "eof-after-comment"])
def test_positions_on_a_multiline_model(tail, error, line, column, message):
    with pytest.raises(error) as err:
        parse_model(CRLF_HEAD + tail)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    if error is not ResourceLimit:  # which carries its position in the text
        assert (err.value.line, err.value.column) == (line, column)


def test_a_multiline_model_with_comments_and_tabs_parses():
    model = parse_model(CRLF_HEAD + ";\r\n\t\r\n char c = u;\r\n# tail")
    assert list(model.characteristics) == ["a", "b", "c"]


def test_dx_power_pair_cap_edge():
    # Dx^n pairs 2*(1 + 2 + ... + n) = n*(n + 1) terms: 16256 for n = 127,
    # 16512 for n = 128
    assert dsl.MAX_PRODUCT_PAIRS == 2 ** 14
    model = parse_model("operator A { Dx^127 }")
    assert model.operators["A"] == PseudoDiffOp.dx(1, 127)
    with pytest.raises(ResourceLimit, match="more than 16384 terms"):
        parse_model("operator A { Dx^128 }")


def test_eps_order_setting_controls_ring():
    model = parse_model("set eps_order = 2;\nchar c = eps^2;")
    assert model.eps_order == 2
    assert not model.characteristics["c"].is_zero()
    truncated = parse_model("char c = eps^2;")
    assert truncated.characteristics["c"].is_zero()


def test_operator_composition_in_dsl_matches_api():
    model = parse_model(
        "operator E { 4*u*Dx + 2*u_x - Dx^3 }\n"
        "operator R { E*Dxi }\n")
    assert model.operators["R"] == compose(model.operators["E"],
                                           PseudoDiffOp.dxi(1))


def test_name_references_between_categories():
    model = parse_model(
        "system s { rhs: u_xx; }\n"
        "char doubled = 2*s;\n"
        "density d = u^2/2;\n"
        "char from_density = d + u;\n")
    ctx = model.context
    assert model.characteristics["doubled"] == 2 * ctx.u(2)
    assert model.characteristics["from_density"] == ctx.u(0) ** 2 / 2 + ctx.u(0)


def test_comments_and_whitespace():
    model = parse_model("# leading comment\nchar a = u; # trailing\n\n")
    assert "a" in model.characteristics


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_round_trip(name):
    model = load_fixture(name)
    text = print_model(model)
    reparsed = parse_model(text)
    assert reparsed == model
    assert print_model(reparsed) == text  # canonical form is a fixed point
    # every kind of declaration takes part in ==
    for table in ("systems", "operators", "characteristics", "densities"):
        changed = parse_model(text)
        getattr(changed, table).clear()
        assert (changed == model) == (not getattr(model, table))


def test_unknown_fixture_names_the_built_in_models():
    with pytest.raises(KeyError) as err:
        load_fixture("nope")
    assert all(name in str(err.value) for name in ("gardner",
                                                   "potential_burgers"))


def test_keyword_cannot_appear_in_an_expression():
    with pytest.raises(ParseError) as err:
        parse_model("char Q = rhs;")
    assert str(err.value) == ("line 1, column 10: keyword 'rhs' cannot "
                              "appear in an expression")


def test_print_deterministic():
    model = load_fixture("gardner")
    assert print_model(model) == print_model(load_fixture("gardner"))


@pytest.mark.parametrize("text", [
    "char Q = (u + u_x + 1)^400;",
    "char Q = " + "*".join(["(u + u_x + 1)"] * 300) + ";",  # spelt out
    "char Q = 2^100000;",
    "operator A { Dx^100000 }",
])
def test_parse_time_products_are_capped(text):
    with pytest.raises(ResourceLimit):
        parse_model(text)


def test_parse_time_coefficient_size_is_capped(monkeypatch):
    # the last product of (2^3)^4 = 2^12 has 2^9 and 2^3 as factors, with
    # 10 + 1 and 4 + 1 bits of numerator + denominator: 16 in all
    monkeypatch.setattr(dsl, "MAX_COEFF_BITS", 16)
    assert (parse_model("char Q = (2^3)^4*u;")
            == parse_model("char Q = 4096*u;"))
    assert parse_model("char Q = (2/3)^3;") == parse_model("char Q = 8/27;")
    for text in ("char Q = (2^3)^5*u;", "char Q = (2/3)^6;",
                 "operator A { (2^3)^5*Dx }"):
        with pytest.raises(ResourceLimit):
            parse_model(text)


def test_zero_powers_are_capped():
    # a zero factor has no terms, but each product still counts a pair
    with pytest.raises(ResourceLimit):
        parse_model("char Q = 0^100000;")


@pytest.mark.parametrize("atom", ["u", "eps"])
def test_each_product_of_a_power_counts_one_pair(monkeypatch, atom):
    # at p = 1, eps^k is zero for k > 1, but each of its products still
    # pairs one term with one
    k = 5
    monkeypatch.setattr(dsl, "MAX_PRODUCT_PAIRS", k)
    parse_model(f"set eps_order = 1; char Q = {atom}^{k};")
    with pytest.raises(ResourceLimit, match=f"more than {k} terms"):
        parse_model(f"set eps_order = 1; char Q = {atom}^{k + 1};")


def test_a_product_meeting_a_sum_counts_its_terms(monkeypatch):
    # 2*u pairs 1 x 1 terms, and (2*u)*(u_x + 1) pairs 1 x 2 more
    monkeypatch.setattr(dsl, "MAX_PRODUCT_PAIRS", 3)
    parse_model("char Q = 2*u*(u_x + 1);")
    monkeypatch.setattr(dsl, "MAX_PRODUCT_PAIRS", 2)
    with pytest.raises(ResourceLimit, match="more than 2 terms"):
        parse_model("char Q = 2*u*(u_x + 1);")


def test_coefficient_bits_of_a_product_of_atoms_are_capped(monkeypatch):
    # the last product of 3^8*u has 3^8 (13 + 1 bits of numerator +
    # denominator) and 1 (1 + 1 bits) as factors: 16 in all; 3^9 has 15 + 1
    a = 8
    assert (3 ** a).bit_length() + 1 + 2 == 16
    monkeypatch.setattr(dsl, "MAX_COEFF_BITS", 16)
    parse_model(f"char Q = 3^{a}*u;")
    with pytest.raises(ResourceLimit, match="more than 16 bits"):
        parse_model(f"char Q = 3^{a + 1}*u;")


def test_literals_and_eps_order_are_capped():
    long = "1" * (dsl.MAX_LITERAL_DIGITS + 1)
    for text in (f"char Q = {long}*u_x;", f"char Q = u{{{long}}};",
                 f"set eps_order = {dsl.MAX_EPS_ORDER + 1};"):
        with pytest.raises(ResourceLimit):
            parse_model(text)
    short = "1" * dsl.MAX_LITERAL_DIGITS
    assert parse_model(f"char Q = {short}*u_x;") is not None
    top = parse_model(f"set eps_order = {dsl.MAX_EPS_ORDER};")
    assert top.eps_order == dsl.MAX_EPS_ORDER


def test_jet_index_is_capped(monkeypatch):
    monkeypatch.setattr(dsl, "MAX_JET_INDEX", 3)
    assert (parse_model("char Q = u{3} + u_xxx;")
            == parse_model("char Q = 2*u_xxx;"))
    for text in ("char Q = u{4};", "char Q = u_xxxx;",
                 "operator A { u{4}*Dx }"):
        with pytest.raises(ResourceLimit):
            parse_model(text)


def test_parenthesis_nesting_is_capped(monkeypatch):
    monkeypatch.setattr(dsl, "MAX_NESTING", 3)
    assert (parse_model("char Q = (((u))) + (((u)));")
            == parse_model("char Q = 2*u;"))  # siblings do not add up
    with pytest.raises(ResourceLimit) as err:
        parse_model("char Q = u + ((((u))));")
    assert str(err.value).startswith("line 1, column 17: ")


def test_leading_signs_are_read_without_recursion():
    assert parse_model("char Q = " + "-" * 5000 + "u;") == parse_model("char Q = u;")
    # the signs apply after the power: -u^2 is -(u^2)
    assert parse_model("char Q = -u^2 + 2*u^2;") == parse_model("char Q = u^2;")
    assert parse_model("char Q = -+-u^2;") == parse_model("char Q = u^2;")
    assert parse_model("char Q = --u_x - -u;") == parse_model("char Q = u_x + u;")


def test_max_jet_order_setting_is_capped():
    cap = dsl.MAX_JET_INDEX
    assert parse_model(f"set max_jet_order = {cap};").max_jet_order == cap
    with pytest.raises(ResourceLimit):
        parse_model(f"set max_jet_order = {cap + 1};")


def test_operator_divided_by_a_constant():
    model = parse_model("operator A { Dx/2 }")
    assert model.operators["A"] == PseudoDiffOp.dx(1).scale(Fraction(1, 2))


@pytest.mark.parametrize("text", ["char Q = ²*u_x;", "system s { rhs: u{²}; }"])
def test_non_ascii_digits_are_model_errors(text):
    with pytest.raises(ModelError):
        parse_model(text)


def test_end_of_input_column_after_a_trailing_comment():
    with pytest.raises(ParseError) as err:
        parse_model("char a = u # c")
    assert (err.value.line, err.value.column) == (1, 15)


@settings(max_examples=300, deadline=None)
@given(model_texts())
@example("operator A { Dx/2 }")
@example("char Q = ²*u_x;")
@example("char u_xx = u^2; char Q = u_xx;")
@example("char Qdeep = " + "(" * 3000 + "u" + ")" * 3000 + ";")
def test_parse_model_raises_only_model_errors(text):
    try:
        parse_model(text)
    except (ModelError, ResourceLimit):
        pass


@settings(max_examples=150, deadline=None)
@given(diff_polys(), nonlocal_ops(), diff_polys(), diff_polys())
def test_print_parse_round_trip(P, A, K, T):
    model = dsl.ModelIR(systems={"s": EvolutionSystem(K, name="s")},
                        operators={"A": A}, characteristics={"Q": P},
                        densities={"T": Functional(T, name="T")})
    assert parse_model(print_model(model)) == model


@st.composite
def terms(draw):
    """One term c*m*eps^e (c may be 0) as a DiffPoly and as model text."""
    coeffs = [0] * (P + 1)
    coeffs[draw(st.integers(0, P))] = draw(rationals)
    T = DiffPoly({draw(monomials(max_degree=2)): EpsPoly(coeffs, order=P)}, P)
    return T, format_poly(T)


def parsed(expression):
    return parse_model(f"char Q = {expression};").characteristics["Q"]


def parsed_op(expression):
    return parse_model(f"operator A {{ {expression} }}").operators["A"]


# The parser multiplies terms, Dx powers and functions times operators
# without the general algebra, and sums through it; each value must equal
# the public API's.
@settings(max_examples=100, deadline=None)
@given(terms(), terms(), diff_polys(max_terms=2, max_degree=2),
       nonlocal_ops(), rationals.filter(bool), st.integers(0, 3),
       st.integers(0, 4))
def test_parser_products_equal_the_algebra(t1, t2, f, A, r, j, n):
    (T1, text1), (T2, text2) = t1, t2
    power = DiffPoly.constant(1, P)
    for _ in range(n):
        power = power * T1
    assert parsed(f"({text1})^{n}") == power
    assert parsed(f"{text1}/({r})") == T1 * (1 / Fraction(r))
    assert parsed(f"{text1} + {text2}") == T1 + T2
    assert parsed(f"{text1} - ({text2})") == T1 - T2
    assert parsed(f"({format_poly(f)}) + {text1}") == f + T1
    assert parsed(f"{text1} - ({format_poly(f)})") == T1 - f
    assert (parsed_op(f"({format_operator(A)}) + {text1}")
            == A + PseudoDiffOp.from_poly(T1))
    assert parsed(f"({text1})*({format_poly(f)})") == T1 * f
    assert parsed(f"({format_poly(f)})*({text1})") == f * T1
    assert (parsed_op(f"({format_poly(f)})*({format_operator(A)})")
            == compose(PseudoDiffOp.from_poly(f), A))
    Dx_j, composed = PseudoDiffOp.dx(P, j), PseudoDiffOp.identity(P)
    for _ in range(n):
        composed = compose(composed, Dx_j)
    assert parsed_op(f"(Dx^{j})^{n}") == composed

"""The CLI's exit-code contract under hypothesis.

For every input schema in docs/schemas, small valid documents are drawn
and then mutated (keys dropped or added, values replaced by wrong types,
NaN, bad rationals or huge numbers).  Whatever the document, `main`
exits 0, 1 or 2 without a traceback; a report on stdout is strict JSON
and the same bytes on a re-run; and every document the schema rejects
exits 2 with a message naming a JSON path.  A schema-valid document may
still exit 2 for a reason the schema cannot express (an index >= dim,
n != L.n).  With a `--steps` beyond `cli.MAX_STEPS`, `ihs-run` exits 2
naming `--steps`, whatever the document.  `main` runs in-process, with
its output redirected, since hypothesis cannot use function-scoped
fixtures such as capsys.
"""

import copy
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from referencing import Registry, Resource

from diracdeform import cli
from diracdeform import dirac_linear as dl
from dirac_oracles import dirac_to_json

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"
_DOCS = {p.name: json.loads(p.read_text())
         for p in SCHEMAS.glob("*.schema.json")}
_REGISTRY = Registry().with_resources(
    (name, Resource.from_contents(doc)) for name, doc in _DOCS.items())


def validator(name):
    return jsonschema.Draft7Validator(_DOCS[name], registry=_REGISTRY)


def strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# valid documents, counts <= 3
# ---------------------------------------------------------------------------

rationals = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(str),
                      st.sampled_from(["1/2", "-2/3", "0"]))


def rows(bounds, values, max_size=3):
    """Rows of indices below the given bounds plus one value each."""
    if min(bounds, default=1) == 0:
        return st.just([])
    return st.lists(st.tuples(*[st.integers(0, b - 1) for b in bounds],
                              values).map(list), max_size=max_size)


@st.composite
def structure_constants(draw):
    dim = draw(st.integers(0, 3))
    pairs = [(a, b) for a in range(dim) for b in range(dim) if a != b]
    if not pairs:
        return {"dim": dim, "c": []}
    row = st.tuples(st.sampled_from(pairs), st.integers(0, dim - 1),
                    rationals).map(lambda t: [*t[0], t[1], t[2]])
    return {"dim": dim, "c": draw(st.lists(row, max_size=4))}


@st.composite
def courant_input(draw, max_m=2):
    m = draw(st.integers(0, max_m))
    k = draw(st.integers(0, 3))
    values = st.one_of(rationals, st.sampled_from(
        ["1 q1", "1/2 q1^2 + -1"] if m else ["1", "-1/2"]))
    doc = {"m": m, "k": k}
    for name, kinds in (("rho", "mk"), ("rho_bar", "mk"), ("c", "kkk"),
                        ("c_bar", "kkk"), ("psi", "kkk"), ("phi", "kkk"),
                        ("gamma_conn", "mkk")):
        if draw(st.integers(0, 3)) == 0:
            bounds = [m if x == "m" else k for x in kinds]
            doc[name] = draw(rows(bounds, values, 2))
    return doc


# prefix entries that are not 2-forms q^e a^alpha a^beta: exit 2
NOT_TWO_FORMS = {"a^1", "a^1 a^2 a^3", "a_1 a_2", "p_1 a^1 a^2"}


@st.composite
def deform_dirac(draw):
    prefix = st.sampled_from(["a^1 a^2", "-1 a^2 a^1", "1 q1 a^1 a^2", "0",
                              "a^1 a^3", "1 q1 a^1 a^2 + 1/2 a^2 a^3",
                              *sorted(NOT_TWO_FORMS)])
    return {"courant": draw(courant_input(max_m=1)),
            "prefix": draw(st.lists(prefix, max_size=2))}


def square(n):
    return st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                    min_size=n, max_size=n)


def antisymmetric(M):
    return [[M[i][j] - M[j][i] for j in range(len(M))]
            for i in range(len(M))]


@st.composite
def linear_dirac(draw):
    n = draw(st.integers(0, 3))
    M = draw(square(n))
    if draw(st.booleans()):
        M = antisymmetric(M)
    form = draw(st.sampled_from(["subspace", "two_form", "bivector"]))
    if form == "subspace":
        try:
            M = dirac_to_json(dl.from_bivector(M))["subspace"]["basis"]
        except dl.NotAntisymmetric:
            M = [row + row for row in M]
    return {"n": n, form: [[str(x) for x in row] for row in M]}


@st.composite
def ihs_system(draw):
    n = draw(st.integers(0, 3))
    L = dl.from_bivector(antisymmetric(draw(square(n))))
    doc = {"n": n, "L": dirac_to_json(L),
           "H": draw(rows([3] * n, rationals).map(
               lambda rs: [[r[:-1], r[-1]] for r in rs]) if n else
               st.just([]))}
    for key, values in (("h", [0.01, 0.1]), ("tol", [1e-9, 1e-6])):
        if draw(st.booleans()):
            doc[key] = draw(st.sampled_from(values))
    return doc


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------

COUNTS = {"dim", "m", "k", "n", "ambient"}
WRONG = [None, True, "x", "", "1/0", "--1", "1/2/3", 0.5, -1, [], {"a": 1},
         float("nan"), float("inf")]
# huge numbers go only into value and index slots: a huge count asks for
# a huge computation, which is not an input error.  A huge decimal
# exponent is one, and must be refused before Fraction expands it.
HUGE = [10 ** 30, -10 ** 30, "1e400", 1e308, "1e30000000", "-1E-30000000"]
# ihs-run's --steps is a count with a bound, checked before the input
HUGE_STEPS = [cli.MAX_STEPS + 1, 10 ** 30]


def _nodes(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, v in items:
        yield from _nodes(v, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, documents):
    doc = draw(documents)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        op = draw(st.sampled_from(["drop", "add", "replace"]))
        target = _at(doc, path)
        slot = path[-1] if path else None
        choices = WRONG + (HUGE if slot not in COUNTS else [])
        value = copy.deepcopy(draw(st.sampled_from(choices)))
        if op == "add" and isinstance(target, (dict, list)):
            if isinstance(target, dict):
                target["junk"] = value
            else:
                target.append(value)
        elif op == "drop" and path:
            del _at(doc, path[:-1])[path[-1]]
        else:
            if path:
                _at(doc, path[:-1])[slot] = value
            else:
                doc = value
    return doc


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def x0_for(doc):
    """--x0 of the right length for an ihs-system document, if it has
    one."""
    try:
        n = int(doc["L"]["n"])
    except (TypeError, KeyError, ValueError, OverflowError):
        n = 2
    return "--x0=" + ",".join(["1"] * min(max(n, 1), 3))


def not_two_form(doc):
    """A deform-dirac document with a prefix entry that is not a 2-form."""
    prefix = doc.get("prefix") if isinstance(doc, dict) else None
    return isinstance(prefix, list) and any(
        isinstance(p, str) and p in NOT_TWO_FORMS for p in prefix)


IN = "<input>"
# per schema: valid documents, and the commands that read them
CASES = {
    "structure-constants.schema.json": (structure_constants(), [
        ["check-jacobi", IN], ["ce-cohomology", IN, "--degrees", "1", "2"],
        ["deform-lie", IN, "--order", "2"]]),
    "courant-input.schema.json": (courant_input(), [
        ["courant-verify", IN, "--degree", "0"], ["theta-master", IN]]),
    "deform-dirac.schema.json": (deform_dirac(), [
        ["deform-dirac", IN, "--order", "2", "--degree-cap", "1"]]),
    "linear-dirac.schema.json": (linear_dirac(), [["dirac-linear", IN]]),
    "ihs-system.schema.json": (ihs_system(), [
        ["ihs-run", "--system", IN, "--steps", "3"]]),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize("schema", sorted(CASES))
def test_exit_code_contract(schema, workdir):
    documents, commands = CASES[schema]
    check = validator(schema)
    path = workdir / schema.replace(".schema", "")

    @given(doc=mutated(documents), pick=st.integers(0, 2),
           steps=st.sampled_from(HUGE_STEPS))
    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def contract(doc, pick, steps):
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == IN else a
                for a in commands[pick % len(commands)]]
        if argv[0] == "ihs-run":
            argv.append(x0_for(doc))
        code, out, err = run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("input error: ")
        else:
            strict_json(out)
            assert run(argv) == (code, out, err)
        if not check.is_valid(doc) or not_two_form(doc):
            assert code == 2
            assert re.search(r": \$[^ ]*: ", err), err
        if argv[0] == "ihs-run":
            argv[argv.index("--steps") + 1] = str(steps)
            assert run(argv) == (2, "", f"input error: --steps: {steps} "
                                        f"is more than {cli.MAX_STEPS}\n")

    contract()

"""The package namespace: every exported name exists, once, every module
uses the names it imports, every entry point rejects a scalar argument of
the wrong type with the error it raises for one out of range, every
sequence argument rejects anything but a list or tuple with the error of
its site, and the exact paths run without loading numpy."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import majorant
from majorant import (
    Certificate,
    DimensionError,
    DomainError,
    EvalConfig,
    FrequencySet,
    IntMatrix,
    PointGenerator,
    abundance_scan,
    assign_signs,
    build_c,
    build_v,
    c_closed_form,
    construct_abundant,
    construct_certificates,
    construct_independent,
    construct_moment,
    emit_plot_data,
    gamma_point,
    gen_binom,
    lp_norm_even_exact,
    lp_norm_quadrature,
    lp_norm_taylor,
    multinomial,
    paired_difference,
    sign_condition,
    smallest_admissible_k,
    vandermonde_check,
    weak_majorant_bound,
    weak_majorant_ratio,
)


def test_all_names_are_unique():
    assert len(set(majorant.__all__)) == len(majorant.__all__)


def test_all_names_resolve():
    assert [name for name in majorant.__all__ if not hasattr(majorant, name)] == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    A name counts as read when it appears as an identifier, inside a quoted
    annotation, or in `__all__`; `from __future__` imports are directives.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    quoted: list[ast.AST] = []  # annotations and __all__, whose strings hold names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            quoted.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            quoted.append(node.value)
    for part in quoted:
        for node in ast.walk(part):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    inner = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, say
                    continue
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from math import gcd, log\nimport numpy as np\nlog(2)\nraise ValueError('gcd')\n"
    assert unused_imports(source) == ["gcd", "np"]
    source = "from typing import Any, Optional\nx: 'Optional[int]'\n__all__ = ['Any']\n"
    assert unused_imports(source) == []
    assert unused_imports("import os.path\nos.getcwd()\n") == []


def test_no_module_imports_an_unused_name():
    package = Path(majorant.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no other top-level statement reads.

    `sources` maps module names to source text.  A name is private when it
    starts with one underscore; dunder names such as `__version__` are not.
    A read is a loaded identifier or an attribute, in any module; a
    statement reading a name it defines itself, as a recursive function
    does, does not count.
    """
    defined: list[tuple[str, str]] = []  # (module, name)
    reads: list[tuple[set[str], set[str]]] = []  # (names a statement defines, names it reads)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            defined += [(module, n) for n in sorted(names)]
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
            reads.append((names, read))
    return [
        f"{module}.{name}"
        for module, name in defined
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in read and name not in names for names, read in reads)
    ]


def test_unreferenced_private_names_are_found():
    sources = {
        "a": "_LIMIT = 3\n__version__ = '1'\ndef _walk(n):\n    return _walk(n - 1)\n",
        "b": "from .a import _LIMIT\ndef _used():\n    return _LIMIT\nx = _used()\n",
    }
    assert unreferenced_private_names(sources) == ["a._walk"]


def test_every_private_name_is_referenced():
    package = Path(majorant.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


LINE = ((0,), (1,), (2,))
CURVE = FrequencySet(2, (), PointGenerator("moment_curve"))
CFG = EvalConfig(grid_points_per_axis=16)
WEAK = ((0.5, -0.5), (1.0, 1.0))  # coefficients and majorant on two curve points


@cache
def line_certificate():
    return construct_independent(FrequencySet(1, LINE))


DIM, DOM = DimensionError, DomainError

# (entry point and argument, a valid value, the error for a bad one, the call on a value);
# an integer argument is also given its valid value plus 0.5
INTEGERS = [
    ("EvalConfig-grid", 8, DOM, lambda v: EvalConfig(grid_points_per_axis=v)),
    ("EvalConfig-cutoff", 1, DOM, lambda v: EvalConfig(series_total_degree_cutoff=v)),
    ("lp_norm_even_exact-s", 1, DOM, lambda v: lp_norm_even_exact(LINE, (1, 1, 1), v)),
    ("FrequencySet-dim", 1, DIM, lambda v: FrequencySet(v, ((1,), (2,)))),
    ("from_json-dim", 1, DOM, lambda v: FrequencySet.from_json({"dim": v, "points": [[1]]})),
    ("PointGenerator-t_start", 1, DOM, lambda v: PointGenerator("moment_curve", {"t_start": v})),
    ("abundance_scan-budget", 1, DOM, lambda v: abundance_scan(CURVE, v)),
    ("construct_abundant-how_many", 1, DOM, lambda v: construct_abundant(CURVE, v)),
    ("construct_abundant-stream", 1, DOM, lambda v: construct_abundant(CURVE, 1, stream_budget=v)),
    ("construct_certificates-how_many", 2, DOM, lambda v: construct_certificates(CURVE, v)),
    (
        "construct_certificates-stream",
        1,
        DOM,
        lambda v: construct_certificates(CURVE, 1, stream_budget=v),
    ),
    ("construct_moment-d", 1, DIM, lambda v: construct_moment(v, 3)),
    ("emit_plot_data-p_samples", 2, DOM, lambda v: emit_plot_data(line_certificate(), v)),
    ("gen_binom-j", 2, DOM, lambda v: gen_binom(2.5, v)),
    ("gamma_point-d", 1, DIM, lambda v: gamma_point(v, 2)),
    ("gamma_point-t", 1, DOM, lambda v: gamma_point(2, v)),
    ("c_closed_form-d", 1, DIM, lambda v: c_closed_form(v, 1)),
    ("smallest_admissible_k-d", 1, DIM, lambda v: smallest_admissible_k(v, 3)),
    ("c_closed_form-k", 1, DOM, lambda v: c_closed_form(2, v)),
    ("vandermonde_check-d", 1, DIM, lambda v: vandermonde_check(v, 1)),
    ("vandermonde_check-k", 1, DOM, lambda v: vandermonde_check(2, v)),
    ("weak_majorant_ratio-d", 1, DIM, lambda v: weak_majorant_ratio(v, 2, *WEAK, (1, 2))),
    ("weak_majorant_ratio-support", 1, DOM, lambda v: weak_majorant_ratio(2, 2, *WEAK, (v, 2))),
    ("weak_majorant_bound-d", 1, DIM, weak_majorant_bound),
    ("multinomial-entries", 1, DOM, lambda v: multinomial((v, 1))),
]
# the same for exponents and coefficients, where a float is valid, and also given 10**400:
# a Real, but beyond the float range
REALS = [
    ("lp_norm_quadrature-p", 2.5, DOM, lambda v: lp_norm_quadrature(LINE, (1, 0.5, 0.5), v, CFG)),
    ("lp_norm_quadrature-coeff", 0.5, DOM, lambda v: lp_norm_quadrature(LINE, (1, v, 1), 3, CFG)),
    ("paired_difference-p", 2.5, DOM, lambda v: paired_difference(LINE, (1, -0.5, 0.5), v, CFG)),
    ("lp_norm_taylor-p", 2.5, DOM, lambda v: lp_norm_taylor(LINE[1:], (0.25, 0.25), v, CFG)),
    ("construct_moment-p", 2.5, DOM, lambda v: construct_moment(2, v)),
    ("gen_binom-p", 2.5, DOM, lambda v: gen_binom(v, 2)),
    ("sign_condition-p", 2.5, DOM, lambda v: sign_condition(v, build_c((1, -2, 1)))),
    ("smallest_admissible_k-p", 2.5, DOM, lambda v: smallest_admissible_k(2, v)),
    ("weak_majorant_ratio-p", 2, DOM, lambda v: weak_majorant_ratio(2, v, *WEAK, (1, 2))),
    ("assign_signs-magnitude", 0.5, DOM, lambda v: assign_signs(build_c((1, -2, 1)), v)),
]


def malformed(sites, odd):
    """Each site's call on True, odd(its valid value), that value as a string, and None."""
    return [
        pytest.param(call, bad, error, id=f"{name}-{bad!r}"[:60])
        for name, valid, error, call in sites
        for bad in (True, odd(valid), str(valid), None)
    ]


MALFORMED = malformed(INTEGERS, lambda v: v + 0.5) + malformed(REALS, lambda v: 10**400)


@pytest.mark.parametrize("call, value, error", MALFORMED)
def test_malformed_scalar_raises_the_error_of_its_argument(call, value, error):
    with pytest.raises(error):
        call(value)


def certificate_with(key):
    return lambda v: Certificate.from_json({**line_certificate().to_json(), key: v})


def progression(start, step):
    return PointGenerator("arith_progression", {"start": start, "step": step})


def weak(coeffs=WEAK[0], majorant=WEAK[1], support=(1, 2)):
    return weak_majorant_ratio(2, 2, coeffs, majorant, support)


# (entry point and argument, a valid value, the error for a bad container, the call on a value)
SEQUENCES = [
    ("IntMatrix-entries", ((1, 2),), DOM, IntMatrix),
    ("IntMatrix.from_rows-rows", [[1, 2]], DOM, IntMatrix.from_rows),
    ("IntMatrix.from_columns-cols", [[1, 2]], DOM, IntMatrix.from_columns),
    ("FrequencySet-points", LINE, DOM, lambda v: FrequencySet(1, v)),
    ("from_json-points", [[0]], DOM, lambda v: FrequencySet.from_json({"dim": 1, "points": v})),
    (
        "from_json-params",
        {"t_start": 2},
        DOM,
        lambda v: FrequencySet.from_json(
            {"dim": 1, "generator": {"kind": "moment_curve", "params": v}}
        ),
    ),
    ("PointGenerator-params", {"t_start": 2}, DOM, lambda v: PointGenerator("moment_curve", v)),
    ("PointGenerator-start", [0], DOM, lambda v: progression(v, [1])),
    ("PointGenerator-step", [1], DOM, lambda v: progression([0], v)),
    ("build_v-freqs", LINE[:2], DOM, build_v),
    ("build_c-v", (1, -2, 1), DOM, build_c),
    ("multinomial-entries", (1, 1), DOM, multinomial),
    ("lp_norm_quadrature-freqs", LINE, DOM, lambda v: lp_norm_quadrature(v, (1, 1, 1), 3, CFG)),
    ("lp_norm_quadrature-coeffs", (1, 1, 1), DOM, lambda v: lp_norm_quadrature(LINE, v, 3, CFG)),
    ("paired_difference-freqs", LINE, DOM, lambda v: paired_difference(v, (1, -1, 1), 3, CFG)),
    ("paired_difference-signed", (1, -1, 1), DOM, lambda v: paired_difference(LINE, v, 3, CFG)),
    ("lp_norm_taylor-freqs", LINE[1:], DOM, lambda v: lp_norm_taylor(v, (0.25, 0.25), 3, CFG)),
    ("lp_norm_taylor-b", (0.25, 0.25), DOM, lambda v: lp_norm_taylor(LINE[1:], v, 3, CFG)),
    ("lp_norm_even_exact-freqs", LINE, DOM, lambda v: lp_norm_even_exact(v, (1, 1, 1), 1)),
    ("lp_norm_even_exact-coeffs", (1, 1, 1), DOM, lambda v: lp_norm_even_exact(LINE, v, 1)),
    ("weak_majorant_ratio-coeffs", WEAK[0], DOM, lambda v: weak(coeffs=v)),
    ("weak_majorant_ratio-majorant", WEAK[1], DOM, lambda v: weak(majorant=v)),
    ("weak_majorant_ratio-support", (1, 2), DOM, lambda v: weak(support=v)),
    ("Certificate.from_json-frequencies", [[0], [1], [2]], DOM, certificate_with("frequencies")),
    ("Certificate.from_json-coefficients", [1, 0.5, 0.5], DOM, certificate_with("coefficients")),
]
# a scalar, null, a string and bytes (each iterable or indexable in some way), a mapping and a float
NOT_SEQUENCES = (5, None, "12", b"\x01\x02", {"a": 1}, 2.5)


@pytest.mark.parametrize(
    "call, value, error",
    [
        pytest.param(call, bad, error, id=f"{name}-{bad!r}")
        for name, _, error, call in SEQUENCES
        for bad in NOT_SEQUENCES
    ],
)
def test_sequence_argument_refuses_other_containers(call, value, error):
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("call, value", [pytest.param(c, v, id=n) for n, v, _, c in SEQUENCES])
def test_sequence_table_calls_are_valid(call, value):
    call(value)


# the exact paths of a fresh interpreter, then one grid pass
EXACT_PATHS = """\
import json, sys
import majorant as mj
import majorant.cli

assert mj.classify(mj.FrequencySet(2, ((0, 0), (1, 0), (0, 1))))["affinely_independent"]
family = mj.PointGenerator("arith_progression", {"start": [2, 1], "step": [1, 1]})
report = mj.classify(mj.FrequencySet(2, ((0, 0), (1, 0), (0, 1)), family), with_certificate=False)
assert report["smp_status"] == "violated_with_certificate" and report["certificate"] is None
assert mj.reduce_full_dim(mj.FrequencySet(3, ((0, 0, 0), (1, 1, 0), (2, 2, 0), (1, 0, 0)))).reduced.dim == 2
mj.lp_norm_taylor(((1, 0), (0, 1), (1, 1)), (0.25, -0.25, 0.25), 3, mj.EvalConfig())
mj.lp_norm_even_exact(((0,), (1,), (2,)), (1, -1, 1), 3)
with open(sys.argv[1]) as fh:
    data = json.load(fh)
assert mj.Certificate.from_json(data).to_json() == data
print("numpy" in sys.modules)
mj.paired_difference(((0,), (1,), (2,)), (1.0, -0.5, 0.5), 3, mj.EvalConfig(grid_points_per_axis=16))
print("numpy" in sys.modules)
"""


def test_exact_paths_leave_numpy_unloaded(tmp_path):
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(line_certificate().to_json()))
    env = {**os.environ}
    src = str(Path(majorant.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", EXACT_PATHS, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False\nTrue\n"

"""The grid oracles share nothing with the closed forms but T (ROADMAP item 23).

An oracle is meant to catch a bug in the closed form it checks, so no
oracle may reach a closed form: not by a call, and not by reading one of
a record's derived values. The static half builds the call graph of
src/riesz_sip's module-level functions and methods with ast, by name: a
function reaches a module-level function its body names, and a method
or lazy value whose name its body reads as an attribute. It fails if an
oracle function reaches a closed-form one. The gap and sandwich
functions, which compare the two sides, stop the walk. The dynamic half
makes every closed form raise and runs each oracle on generated trials,
which catches what the walk by name misses.
"""

import ast
from pathlib import Path
from unittest import mock

import numpy as np

from riesz_sip import cauchy_schwarz, harness, means
from riesz_sip.cauchy_schwarz import Gram, _Record, defect_grid, lambda_minima
from riesz_sip.harness import TrialConfig, _chunks
from riesz_sip.means import AngleGrid, LogGrid

SRC = Path(__file__).resolve().parents[1] / "src" / "riesz_sip"

# The oracles, with their row samplers, the grid driver and its bracket
# and certificate helpers, the grids and the PSD kernel of the
# lambda-grid samples.
ORACLE = {
    "lambda_minima", "_lambda_rows", "_stack_rows", "_lambda_values",
    "sample", "error", "depth", "_lambda_bound", "_row_form", "defect_grid",
    "_box_times_oracle", "_box_plus_oracle", "box_times_oracle", "box_plus_oracle",
    "_fold_grid", "_whole_grid", "_stride",
    "_coarse", "_brackets", "_angle_bound", "_bound", "signed", "signed_abs", "inverse",
    "_trig", "_quarter_trig", "_row_coefficients", "check_oracle_trials",
}
# The closed forms: the kernels of the means, the closed-form argmin, and
# the values a record derives from a, b and c.
CLOSED = {"_box_times", "_box_plus", "theta_minimizer", "a", "b", "c", "_gram", "bound",
          "defect", "norms", "norm_x", "norm_y", "norm_bound",
          "middle", "weighted_defect"}
# The functions that compare an oracle with its closed form: the walk stops there.
GAPS = {"defect_gaps", "box_times_gaps", "box_plus_gaps"}
# (oracle function, closed form it reaches): why it may
ALLOWED = {
    ("check_oracle_trials", "theta_minimizer"): "item 16 removes it",
}


def _functions() -> dict:
    """{name: [(def node, is a method, the module's imported module aliases)]} over src/riesz_sip."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.Import)
                   for alias in node.names}
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for f in members:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.setdefault(f.name, []).append(
                        (f, isinstance(node, ast.ClassDef), aliases))
    return defs


def _local_names(f) -> set:
    """The parameters of f and the names it, or a function inside it, binds."""
    names = {a.arg for node in ast.walk(f) if isinstance(node, (ast.FunctionDef, ast.Lambda))
             for a in node.args.args + node.args.kwonlyargs + node.args.posonlyargs}
    return names | {node.id for node in ast.walk(f)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _edges(defs: dict) -> dict:
    """{name: the names of defs its body reaches}.

    A body reaches a module-level function whose name it loads (not a
    local name that shadows it), and a method or function whose name it
    reads as an attribute of anything but an imported module (np.where is
    numpy's, not GramStack.where).
    """
    module_level = {name for name, found in defs.items() if any(not m for _, m, _ in found)}
    known = set(defs)
    edges = {}
    for name, found in defs.items():
        reached = set()
        for f, _, aliases in found:
            local = _local_names(f)
            for node in ast.walk(f):
                if isinstance(node, ast.Name) and node.id in module_level - local:
                    reached.add(node.id)
                elif (isinstance(node, ast.Attribute) and node.attr in known
                      and not (isinstance(node.value, ast.Name) and node.value.id in aliases)):
                    reached.add(node.attr)
        edges[name] = reached - {name}
    return edges


def test_no_oracle_reaches_a_closed_form():
    defs = _functions()
    assert ORACLE <= defs.keys(), sorted(ORACLE - defs.keys())
    assert CLOSED <= defs.keys(), sorted(CLOSED - defs.keys())
    edges = _edges(defs)
    reached = []
    for root in sorted(ORACLE):
        seen, todo = {root}, [root]
        while todo:
            for nxt in edges.get(todo.pop(), ()):
                if nxt in CLOSED and (root, nxt) not in ALLOWED:
                    reached.append((root, nxt))
                if nxt not in seen and nxt not in GAPS and nxt not in CLOSED:
                    seen.add(nxt)
                    todo.append(nxt)
    assert reached == []


def _raising(name):
    def closed_form(*args, **kwargs):
        raise AssertionError(f"an oracle reached the closed form {name}")
    return closed_form


def test_the_oracles_run_with_every_closed_form_raising():
    config = TrialConfig(trials=40, seed=1)
    grams = [Gram(g.sip, g.x, g.y, g.u) for g in next(_chunks(config, "generic"))]
    stacked_x = np.array([g.x for g in grams if g.x.size == grams[0].x.size])
    lam = LogGrid.log_spaced(1e-6, 1e6, 10**4)
    theta = LogGrid.log_spaced(1e-8, 1e8, 10**4)
    angle = AngleGrid.uniform(4096)
    patches = [mock.patch.object(module, name, _raising(name))
               for module in (means, cauchy_schwarz, harness)
               for name in ("_box_times", "_box_plus", "theta_minimizer") if hasattr(module, name)]
    patches += [mock.patch.object(_Record, name, property(_raising(name)))
                for name in ("a", "b", "c", "_gram", "bound", "defect", "norms", "middle",
                             "weighted_defect")]
    for p in patches:
        p.start()
    try:
        with np.errstate(all="ignore"):
            for grid in (config.lambda_grid, lam):
                stacked = lambda_minima(grams, grid)
                for g, d in zip(grams, stacked):
                    assert d.shape == (g.T.codomain_dim,)
            for g in grams:
                for grid in (config.lambda_grid, lam):
                    (d,) = lambda_minima([g], grid)
                    assert d.shape == (g.T.codomain_dim,)
                defect_grid(g.T, g.x, g.y, lam)
            u, v = np.abs(stacked_x), np.abs(stacked_x[::-1])
            for grid in (config.theta_grid, theta):
                means._box_times_oracle(u, v, grid, 1e-12)
                means.box_times_oracle(u[0], v[0], grid)
            for grid in (config.angle_grid, angle):
                for quarter in (False, True):
                    means._box_plus_oracle(u, v, grid, quarter)
                    means.box_plus_oracle(u[0], v[0], grid, quarter)
    finally:
        for p in patches:
            p.stop()

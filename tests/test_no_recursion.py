"""The solvers loop where they would nest: no call depth grows with the input."""

import ast
import sys
from pathlib import Path

import barpack
from barpack.exact import solve_exact
from barpack.generators import gen_big_nonincreasing
from barpack.packers import pack_matching, pack_weighted_matching


def self_calls(tree):
    """(enclosing names..., name) of every function that calls its own name,
    from inside itself or from a function nested in it."""
    found = []

    def visit(node, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                path = (*outer, child.name)
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == child.name for n in ast.walk(child)):
                    found.append(path)
                visit(child, path)
            else:
                visit(child, outer)

    visit(tree, ())
    return found


def test_no_function_calls_itself():
    found = []
    for path in sorted(Path(barpack.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, *names) for names in self_calls(tree)]
    assert not found, f"recursive functions: {found}"


def test_guard_sees_nested_and_closure_recursion():
    tree = ast.parse("def f():\n"
                     "    def g(x):\n"
                     "        return [g(y) for y in x]\n"
                     "    def h():\n"
                     "        def k():\n"
                     "            h()\n"
                     "    return g\n")
    assert self_calls(tree) == [("f", "g"), ("f", "h")]


def call_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_solvers_run_in_a_shallow_stack():
    # a search or blossom helper that recursed would nest well past 50
    # frames at n = 300; each call here needs only a fixed few
    inst = gen_big_nonincreasing(300, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(call_depth() + 50)
    try:
        lengths = (pack_matching(inst).length, pack_weighted_matching(inst).length)
        res = solve_exact(inst, budget=5000)
    finally:
        sys.setrecursionlimit(limit)
    assert lengths == (406, 406)
    assert (res.opt_length, res.nodes_explored, res.proven) == (403, 5000, False)

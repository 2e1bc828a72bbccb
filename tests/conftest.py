import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

EXAMPLES = TESTS_DIR / "corpus"
BENCH_CORPUS = TESTS_DIR.parent / "benchmarks" / "corpus"

GOOD_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("*.lcp")
                       if not p.name.startswith("bad_"))
BAD_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("bad_*.lcp"))

# programs whose declarations the type checker rejects, each with the
# message that names the offender
BAD_DECLS = {
    "duplicate-datatype": ("data T = A Int\ndata T = B Int\n\nmain = 1\n",
                           "duplicate datatype T"),
    "duplicate-constructor": ("data T = A Int\ndata U = A Int\n\nmain = 1\n",
                              "duplicate constructor A"),
    "duplicate-function": ("data T = A Int\n\n"
                           "fun f [l@r] (n : Int) : T@l@r = (A l@r n)\n\n"
                           "fun f [l@r] (n : Int) : T@l@r = (A l@r n)\n\n"
                           "main = 1\n",
                           "duplicate function f"),
    "unknown-field-type": ("data T = A Ghost\n\nmain = 1\n",
                           "unknown type Ghost in constructor A"),
    "unknown-parameter-type": ("data T = A Int\n\n"
                               "fun f [l@r] (t : Ghost@l@r) : Int = 1\n\n"
                               "main = 2\n",
                               "unknown type Ghost in function f"),
    "unknown-return-type": ("data T = A Int\n\n"
                            "fun f [l@r] (n : Int) : Ghost@l@r = (A l@r n)\n\n"
                            "main = 2\n",
                            "unknown type Ghost in function f"),
}


@pytest.fixture(scope="session")
def load_program():
    """Parse and typecheck an example by file name, with caching."""
    from locpar import syntax as S
    from locpar.typecheck import typecheck_program

    cache = {}

    def _load(name: str):
        if name not in cache:
            src = (EXAMPLES / name).read_text()
            cache[name] = typecheck_program(S.parse_program(src))
        return cache[name]

    return _load


def bench_source(name: str, size: int, base: int = 7) -> str:
    """A benchmark corpus program (spine, buildtree, sumtree, add1tree) at
    one spine length or tree depth."""
    import string
    text = (BENCH_CORPUS / f"{name}.lcp").read_text()
    return string.Template(text).substitute(depth=size, length=size, base=base)


@pytest.fixture
def default_recursion_limit():
    """Run a test under Python's default recursion limit of 1000."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def canonical():
    """Flatten a run result to a schedule-independent comparison key."""
    from locpar import syntax as S
    from locpar import layout as L

    def _canon(tp, value, store):
        if isinstance(value, S.IntLit):
            return ("int", value.value)
        return ("tree", L.flatten_value(value.loc, tp.main_type.tycon,
                                        store, tp.decls))

    return _canon


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from _acceptance_log import CRITERIA, RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        status, note = RESULTS.get(num, ("NOT RUN", "not selected"))
        line = f"criterion {num}: {status} - {CRITERIA[num]}"
        if note:
            line += f" [{note}]"
        terminalreporter.write_line(line)

"""The tracer names what it could not find, its self times leave out its
own cost, and threads lose none of its spans or counts."""

import json
import subprocess
import sys
import threading
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
SRC = PERFBENCH.parent / "src"

# in a fresh interpreter: renames the given public function everywhere it
# is looked up, runs a noA2 scan untraced (unless a function was renamed,
# which the scan's callers would miss), installs the tracer, runs the scan
# again and prints the thread CPU time of both scans and what layer_metrics
# reports
SCRIPT = """
import sys, json, io, contextlib, types
from time import thread_time_ns
sys.path[:0] = [{src!r}, {perfbench!r}]
import qhpp.cli
rename = {rename!r}
renamed = None
for mod in list(sys.modules.values()):
    if rename and getattr(mod, "__name__", "").startswith("qhpp") and hasattr(mod, rename):
        fn = getattr(mod, rename)
        if renamed is None:
            renamed = types.FunctionType(fn.__code__, fn.__globals__, "renamed_" + rename,
                                         fn.__defaults__, fn.__closure__)
            renamed.__module__ = fn.__module__
        setattr(mod, "renamed_" + rename, renamed)
        delattr(mod, rename)

def scan():
    t0 = thread_time_ns()
    with contextlib.redirect_stdout(io.StringIO()):
        rename or qhpp.cli.main(["enumerate", "--pipeline", "noA2", "--cap", "500", "--threads", "1"])
    return (thread_time_ns() - t0) / 1e9

plain = scan()
from spans import Tracer
tracer = Tracer()
tracer.install()
traced = scan()
layers = tracer.layer_metrics()
print(json.dumps({{"missing": tracer.missing, "layers": layers, "plain_s": plain, "traced_s": traced}}))
"""


def traced(rename: str = "") -> dict:
    code = SCRIPT.format(src=str(SRC), perfbench=str(PERFBENCH), rename=rename)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_renamed_function_is_reported_missing():
    assert traced()["missing"] == []
    missing = traced("is_positive_square")["missing"]
    assert "ratio.is_positive_square" in missing


def test_self_times_leave_out_the_cost_of_the_spans():
    result = traced()
    layers = result["layers"]
    self_s = sum(layers[k] for k in (
        "hjcf.self_s", "ratio.self_s", "enumeration.self_s", "surface.dp_data_self_s", "cli.self_s"))
    assert layers["ratio.square_tests"] == 3 * 16173
    # the spans cost the traced scan 40-100 % on top; with their calibrated
    # cost taken out, the self times are 30-45 % below the traced time and
    # come back near the untraced scan's time (the bounds leave room for the
    # drift of a shared host between the two scans)
    assert self_s < 0.8 * result["traced_s"]
    assert 0.6 * result["plain_s"] < self_s < 1.6 * result["plain_s"]


def test_threads_lose_no_span_or_count():
    sys.path.insert(0, str(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    name = "hjcf.enumerate_cfs_of_order"
    traced_fn = tracer.span(lambda q: next(tracer.chains_built), name)
    calls, threads = 3_000, 4

    def work():
        for q in range(calls):
            traced_fn(q)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    assert tracer.per_name()[name]["calls"] == calls * threads
    assert next(tracer.chains_built) == calls * threads
    assert len(tracer.distinct[name]) == calls

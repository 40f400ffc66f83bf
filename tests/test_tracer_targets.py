"""perfbench's tracer finds the library's entry points by name.

``perfbench/tracer.py`` wraps each layer it times by replacing an
attribute named by a ``"module:Owner.attr"`` string, so renaming or
deleting a traced name breaks only the traced benchmark runs.  This
test installs and uninstalls the tracer in-process: every target must
resolve to its owner's own attribute (not an inherited one), be wrapped
while installed, and be restored afterwards.  The tracer's source is
read, not imported, so nothing is written under ``perfbench/``.
"""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    code = compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec")
    exec(code, module.__dict__)
    return module


def test_every_target_is_an_own_attribute_wrapped_and_restored():
    tracer_module = load_tracer()
    targets = [target for __, target, __ in tracer_module.LAYER_TARGETS]
    targets += [target for __, target in tracer_module.LAYER_COUNTERS]
    originals = {}
    for target in targets:
        owner, attr = tracer_module._resolve(target)
        assert attr in vars(owner), f"{target} is not its owner's own attribute"
        originals[target] = vars(owner)[attr]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for target in targets:
            owner, attr = tracer_module._resolve(target)
            assert vars(owner)[attr] is not originals[target], target
    finally:
        tracer.uninstall()
    for target in targets:
        owner, attr = tracer_module._resolve(target)
        assert vars(owner)[attr] is originals[target], target

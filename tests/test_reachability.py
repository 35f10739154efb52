"""The CLI reaches every function that ``synthdetect.tensor``,
``synthdetect.model``, ``synthdetect.train``, ``synthdetect.bayes``,
``synthdetect.checkpoint``, ``synthdetect.evaluate``,
``synthdetect.preprocess``, ``synthdetect.perturb`` and ``synthdetect.cli``
define, apart from the few listed in ``NOT_RUN_BY_COMMANDS``.

The ops are what training and inference run and nothing more, each pull
among them, the extractor has no geometry helper that only tests call, and
the objectives leave no helper behind. This runs ``train`` (map and variational), ``eval``,
``score``, a blur, a jpeg and a resize ``perturb`` and one usage error
through ``cli.main`` on a tiny 32 px corpus, and ``score`` on PNGs whose
rows use all five scanline filters, under ``sys.setprofile``, and requires
that each function and method of each module was called, the closures and
comprehensions nested in them (the ops' backward ``pull`` functions among
them) included, so an op or method that no command runs fails it. A
property or cached property counts by its getter, a cached function by the
function it wraps.
Methods that ``dataclasses`` generates (``CnnConfig.__init__``, ``__eq__`` and
the like) are not the module's own code and are left out.
"""

import functools
import inspect
import sys
import types

import numpy as np
import pytest

from synthdetect import bayes, checkpoint, cli, evaluate, model, perturb, preprocess, tensor, train
from synthdetect.cli import main
from synthdetect.textures import write_dataset

from imageio import write_png

NOT_RUN_BY_COMMANDS = {
    tensor: set(),
    model: set(),
    train: set(),
    bayes: {
        # the Gauss-Newton predictive and its iterative reference: the
        # benchmark's variance32 workload and the tests run them, no command does
        "GaussNewtonCurvature.__init__",
        "GaussNewtonCurvature.factor", "GaussNewtonCurvature.matvec",
        "predictive",
        "cg_solve", "per_sample_gradients", "per_sample_gradients.<locals>.<listcomp>",
        # the head's closed-form Jacobian, which only the curvature uses
        "BayesianHead.jacobian_products", "BayesianHead.jacobian_products.<locals>.jvp",
        "BayesianHead.jacobian_products.<locals>.vjp", "BayesianHead.gradient_coordinates",
        "BayesianHead.gradient_gram",
    },
    checkpoint: {
        # error path: the keys in which a rejected header differs from the
        # rebuilt one
        "_declared_values.<locals>.<listcomp>",
    },
    evaluate: set(),
    preprocess: set(),
    # runs once, as the module is imported, before any command
    perturb: {"_dct_matrix"},
    # the console script, which calls ``main`` and exits the process
    cli: {"entry"},
}


def _nested(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _nested(const)


def _defined_code(module) -> dict[types.CodeType, str]:
    """Code object -> qualified name of every function the module's source
    file defines."""
    funcs = []
    for obj in vars(module).values():
        obj = inspect.unwrap(obj) if callable(obj) else obj  # functools.cache
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            funcs.append(obj)
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for member in vars(obj).values():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, functools.cached_property):
                    member = member.func
                member = getattr(member, "__func__", member)  # class/static methods
                if inspect.isfunction(member):
                    funcs.append(member)
    return {code: code.co_qualname for f in funcs for code in _nested(f.__code__)
            if code.co_filename == module.__file__}


@pytest.fixture(scope="module")
def called(tmp_path_factory) -> set[types.CodeType]:
    """Every code object that ran in the commands below."""
    tmp_path = tmp_path_factory.mktemp("reach")
    root = tmp_path / "data"
    write_dataset(root, 16, 4, size=32, seed=7)
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 1\nbatch_size = 4\ninput_size = 32\nsplit = 0.5\n"
                      "metric_sample_cap = 8\n")
    variational = tmp_path / "variational.cfg"
    # no dropout: its identity pull is what such a run steps through
    variational.write_text(config.read_text() + "inference_mode = variational\n"
                           "dropout_rate = 0\n")
    pngs = tmp_path / "pngs"
    pngs.mkdir()
    rng = np.random.default_rng(7)
    for k in range(2):
        pixels = rng.integers(0, 256, (34, 33, 3), dtype=np.uint8)
        (pngs / f"{k}.png").write_bytes(write_png(pixels, filters=list(rng.permutation(34) % 5)))
    run = tmp_path / "run"
    commands = [
        ["train", "--data", str(root), "--out", str(tmp_path / "vi"),
         "--config", str(variational)],
        ["train", "--data", str(root), "--out", str(run), "--config", str(config)],
        ["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(root),
         "--out", str(tmp_path / "eval"), "--split", "0.5"],
        ["score", "--checkpoint", str(run / "checkpoint.bin"), "--out",
         str(tmp_path / "scores.csv"), str(root / "real")],
        ["score", "--checkpoint", str(run / "checkpoint.bin"), "--out",
         str(tmp_path / "png_scores.csv"), str(pngs)],
        *(["perturb", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(root),
           "--transform", transform, "--grid", grid, "--split", "0.5",
           "--out", str(tmp_path / f"{transform}.csv")]
          for transform, grid in [("blur", "0,1"), ("jpeg", "50"), ("resize", "0.5")]),
        ["score"],  # a usage error: no checkpoint, no images
    ]
    called = set()
    # as in a fresh process: score builds the table, perturb its operators
    for cached in (preprocess._predictor_table, perturb._blur_operator,
                   perturb._quant_tables, perturb._resize_operator):
        cached.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0] * (len(commands) - 1) + [1]
    return called


def _unreached(module, called) -> list[str]:
    return sorted({name for code, name in _defined_code(module).items() if code not in called})


def test_cli_reaches_every_tensor_function(called):
    assert _unreached(tensor, called) == sorted(NOT_RUN_BY_COMMANDS[tensor])


def test_cli_reaches_every_model_function(called):
    assert _unreached(model, called) == sorted(NOT_RUN_BY_COMMANDS[model])


def test_cli_reaches_every_train_function(called):
    assert _unreached(train, called) == sorted(NOT_RUN_BY_COMMANDS[train])


def test_cli_reaches_every_bayes_function(called):
    assert _unreached(bayes, called) == sorted(NOT_RUN_BY_COMMANDS[bayes])


def test_cli_reaches_every_checkpoint_function(called):
    assert _unreached(checkpoint, called) == sorted(NOT_RUN_BY_COMMANDS[checkpoint])


def test_cli_reaches_every_evaluate_function(called):
    assert _unreached(evaluate, called) == sorted(NOT_RUN_BY_COMMANDS[evaluate])


def test_cli_reaches_every_preprocess_function(called):
    assert _unreached(preprocess, called) == sorted(NOT_RUN_BY_COMMANDS[preprocess])


def test_cli_reaches_every_perturb_function(called):
    assert _unreached(perturb, called) == sorted(NOT_RUN_BY_COMMANDS[perturb])


def test_cli_reaches_every_cli_function(called):
    assert _unreached(cli, called) == sorted(NOT_RUN_BY_COMMANDS[cli])

"""The package's public surface: each module's __all__, re-exported whole.

framekit/__init__.py holds no list of names of its own; these tests pin
the names it exports and where each one is defined.
"""

import importlib

import framekit

# name -> the module that defines it
PUBLIC = {
    "FramekitError": "errors",
    "NumericalError": "errors",
    "DegenerateSpanError": "errors",
    "NotTightError": "errors",
    "AllocationError": "errors",
    "Tolerance": "matrix_core",
    "DEFAULT_TOLERANCE": "matrix_core",
    "SvdFactors": "matrix_core",
    "as_matrix": "matrix_core",
    "as_vector": "matrix_core",
    "adjoint": "matrix_core",
    "max_abs": "matrix_core",
    "FrameSequence": "frame_ops",
    "OperatorBundle": "frame_ops",
    "FrameBounds": "frame_ops",
    "FrameClassification": "frame_ops",
    "RestrictedOperators": "frame_ops",
    "build_bundle": "frame_ops",
    "frame_bounds": "frame_ops",
    "classify": "frame_ops",
    "canonical_dual": "frame_ops",
    "restricted": "frame_ops",
    "pseudo_frame_operator": "frame_ops",
    "pseudo_gram": "frame_ops",
    "scaled_deviation": "frame_ops",
    "svd": "frame_ops",
    "pinv": "frame_ops",
    "range_projector": "frame_ops",
    "numerical_rank": "frame_ops",
    "op_norm": "frame_ops",
    "MinNormSolution": "reconstruct",
    "min_norm_coefficients": "reconstruct",
    "min_norm_preimage": "reconstruct",
    "project_signal": "reconstruct",
    "project_coefficients": "reconstruct",
    "GENERATOR_KINDS": "verifier",
    "GeneratorSpec": "verifier",
    "CheckRecord": "verifier",
    "IdentityReport": "verifier",
    "generate": "verifier",
    "run_identity_suite": "verifier",
    "polarization_check": "verifier",
    "bounds_vs_sampling": "verifier",
    "registry_formulas": "verifier",
    "__version__": None,
}


def test_all_lists_the_public_names_once():
    assert len(PUBLIC) == 45
    assert sorted(framekit.__all__) == sorted(PUBLIC)
    assert len(set(framekit.__all__)) == len(framekit.__all__)


def test_each_name_is_the_object_its_module_defines():
    for name, module in PUBLIC.items():
        if module is None:
            assert framekit.__version__ == "0.1.0"
            continue
        defining = importlib.import_module(f"framekit.{module}")
        assert name in defining.__all__, name
        assert getattr(framekit, name) is getattr(defining, name), name


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from framekit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[name] is getattr(framekit, name) for name in PUBLIC)


def test_no_private_name_is_exported():
    # a dunder such as __version__ is not private
    dunder = [name for name in framekit.__all__ if name.startswith("__") and name.endswith("__")]
    assert dunder == ["__version__"]
    assert [name for name in framekit.__all__
            if name.startswith("_") and name not in dunder] == []

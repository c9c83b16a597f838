"""The package's public names."""

import types

import protofilter

#: Test-only references, unused helpers and replaced layers that no longer
#: ship in the package.
REMOVED = (
    "CenteredGram",
    "centered_gram",
    "LabeledVector",
    "kernel_eval",
    "explicit_feature_distance",
    "protonet_distance",
    "dsn_distance",
    "replicated_matrix_distance",
    "filter_weight",
    "filter_matrix",
    "shrinkage_coefficients",
)


def test_all_matches_the_import_block():
    exported = protofilter.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(protofilter, name)] == []
    imported = {
        name for name, value in vars(protofilter).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert imported == set(exported)
    assert [name for name in REMOVED if hasattr(protofilter, name)] == []

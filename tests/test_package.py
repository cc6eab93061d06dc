"""The package's public names."""

import hadamardesque

# Removed exports; each job is done by a kept name (in_free_span of a weight
# difference, pairwise_dots, the truth table).
DELETED = ("column_signs", "column_from_signs", "is_partial_hadamard", "same_pairwise_dots")


def test_every_exported_name_resolves_once():
    names = hadamardesque.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(hadamardesque, name) is not None


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in hadamardesque.__all__
        assert not hasattr(hadamardesque, name)

"""A fast seeded slice of the differential in ``kernel_differential.py``; the
full run is ``PYTHONPATH=src python tests/kernel_differential.py --instances 20000``."""

import kernel_differential

SLICE = 1200


def test_kernel_differential_slice_has_no_mismatch_and_reaches_every_shape():
    """The slice meets empty and zero-width relations, repeated schema
    variables, every kind of schema overlap and every kind of projection."""
    checks, bad, seen = kernel_differential.run(instances=SLICE)
    assert bad == []
    assert checks > 20 * SLICE
    shapes = ["empty-relation", "zero-width", "repeated-schema"]
    shapes += [f"shared-{mode}" for mode in ("none", "one", "all", "some")]
    shapes += [f"project-{tag}" for tag in ("empty", "identity", "renamed", "same-name", "repeated", "permuted", "unknown")]
    assert min(seen[shape] for shape in shapes) >= 50, seen

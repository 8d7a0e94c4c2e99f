import blocksparse
from blocksparse import (GridShape, SolverReport, build_clique_system, common, fftops, prox,
                         pursuit, regularizer, synthetic)

# Names removed from the package: code nothing called, and names since replaced.
DELETED = {
    blocksparse: ("prox_block_norm_framewise", "SyntheticSpec", "SyntheticData",
                  "gen_synthetic", "AllocationTracker", "block_norm_smoothed_grad_fft",
                  "cg_solve_normal", "backtrack_step", "AcceptedStep", "StepFailureError",
                  "default_epsilon", "group_shrink"),
    common: ("AllocationTracker", "backtrack_step", "AcceptedStep", "StepFailureError"),
    SolverReport: ("peak_aux_entries",),
    prox: ("prox_block_norm_framewise", "group_shrink"),
    pursuit: ("cg_solve_normal",),
    regularizer: ("block_norm_smoothed_grad_fft", "_clique_sq_norms", "default_epsilon"),
    fftops: ("_kernel_cache", "_cache_lock", "_padded_shape", "_kernel_fft",
             "_box_convolve_full"),
    synthetic: ("SyntheticSpec", "SyntheticData", "gen_synthetic", "KINDS", "make_phantom",
                "_PHANTOM_ELLIPSES", "MeasurementModel"),
    GridShape: ("index",),
    build_clique_system(GridShape(4, 4), 2): (
        "corners", "indices", "subset_of", "subsets", "coverage", "n_cliques",
        "_check_image", "gather", "scatter_add"),
}


def test_every_export_resolves():
    assert len(set(blocksparse.__all__)) == len(blocksparse.__all__)
    for name in blocksparse.__all__:
        getattr(blocksparse, name)


def test_deleted_names_are_gone():
    for owner, names in DELETED.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert not set(DELETED[blocksparse]) & set(blocksparse.__all__)

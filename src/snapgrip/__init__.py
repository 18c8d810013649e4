"""Bistable soft-gripper energy modeling and design exploration."""

__version__ = "0.1.0"

import os

# numpy loads with the ``.model`` import below, and OpenBLAS then starts a
# thread pool (about 80 ms of CPU per process on a 2-core x86-64 machine).
# snapgrip's BLAS calls (row dots, stacked mat-vec products at n <= 128)
# are below OpenBLAS's threading threshold, so the package asks for one
# thread while it loads, unless the caller chose a thread count.
# os.environ ends as the caller left it, so child processes start as they
# would have.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")
_single_thread = not any(name in os.environ
                         for name in _BLAS_THREAD_VARIABLES)
if _single_thread:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .model import (ChainConfiguration, CrossSection, EnergyLandscape,
                        FingerDesign, GripperDesign, LinearElastic,
                        RingDesign, Yeoh, chain_energy, chain_gradient,
                        chain_gradient_hessian, chain_hessian,
                        finger_energy_1dof, forward_kinematics,
                        gradient_1dof, gravity_energy_1dof, moment_curvature,
                        ring_energy_1dof, sample_landscape, set_design_value,
                        total_energy_1dof)
    from .statics import (ContinuationPath, Equilibrium, EquilibriumReport,
                          continuation_ramped_load, find_equilibria_1dof,
                          find_equilibria_chain, saddle_search_chain,
                          snap_through_energy, trigger_moment)
    from .dynamics import (ClosingEvent, Trajectory, closing_time,
                           closing_time_vs_frequency_study,
                           gravity_trigger_check, natural_frequency,
                           simulate_1dof)
    from .explore import (MorphologyCaseReport, SweepSpec, SweepTable,
                          grip_force_estimate, reproduce_fea_cases,
                          run_sweep, tune_ring_width)
    from .config import (ConfigDocument, build_design, build_solver_settings,
                         default_config, load_config, parse_config,
                         serialize_config)
finally:
    if _single_thread:
        del os.environ["OPENBLAS_NUM_THREADS"]

"""Random time-harmonic scattering toolkit.

Synthesizes rough Gaussian random sources and potentials, runs frequency-band
forward sweeps through an FFT volume-integral solver, and reconstructs the
rough strength by single-realization frequency averaging, with brute-force
oracles for every step.
"""

__version__ = "0.1.0"

from .errors import (ConfigurationError, DataCoverageError, FieldFormatError,
                     OracleError, RscatError, SolverConvergenceError,
                     SolverDivergenceError)
from .fields import ComplexField, GridSpec, ScalarField
from .rsgf import read_field, write_field
from .migr import (MigrSpec, Realization, ball_indicator_field,
                   empirical_covariance, gaussian_bump_field, spectral_slope,
                   synthesize_migr)
from .forward import (ConvergenceReport, FarFieldSet, ResolventOperator,
                      ScatteringConfig, band_sweep, far_field,
                      fundamental_solution, incident_plane_wave,
                      lippmann_schwinger_solve)
from .recovery import (IndependentPowerLawProcess, RecoveryReport,
                       backscatter_band_correlation, band_correlation,
                       ergodic_diagnostic, hermitian_complete,
                       make_farfield_set, midpoint_mesh,
                       nearfield_second_moment, recover_potential_strength,
                       recover_source_strength)
from .oracles import (brute_covariance, direct_farfield,
                      potential_kernel_integral, resolvent_point_values,
                      riesz_kernel)
from .config import ExperimentConfig, fibonacci_sphere, load_config

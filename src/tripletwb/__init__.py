"""Triple twin beams with a shared signal arm: forward Gaussian model,
multiplexed click detection, EM inversion, post-selection statistics and
nonclassicality quantification.
"""
# the one version string: pyproject.toml reads it from here
__version__ = "0.1.0"

from .detector import (DetectionMatrix, DetectorConfig, PAPER_TABLE_1, PRESETS,
                       detection_matrix, forward_counts, sample_counts)
from .emrec import EmResult, EmSettings, em_reconstruct
from .errors import (CutoffError, DataError, NumericalError, ParameterError,
                     TripleTwbError)
from .fit import FitReport, declination, photocount_moments
from .fock import (Histogram, JointDistribution, condition, factorial_moment,
                   marginalize, normalize)
from .gaussian import (GaussianFieldModel, MandelRiceComponent, PAPER_TABLE_2,
                       TripleTwbParams, mandel_rice_pmf, sample_photon_numbers)
from .nonclassical import (IntensityMoments, NccResult, NcdField, NcdResult,
                           PlaneCut, QuasiDistribution,
                           QuasiProbabilityTable, intensity_moments,
                           intensity_ncd, ncc_cs_intensity,
                           ncc_matrix_intensity, ncc_probability, ncd,
                           ncd_field, plane_cut, probability_ncd,
                           quasi_distribution_W, quasi_probabilities,
                           s_transform_moments)
from .postselect import (PostselectSweep, SweepRow, conditioned_field,
                         corr_fluct, fano, sweep_distribution,
                         sweep_histogram)

__all__ = [name for name in dir() if not name.startswith("_")]

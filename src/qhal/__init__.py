"""Quantum harmonic analysis on the finite phase space Z_L x Z_L.

Exact lattice convolutions of sequences and operators, Fourier-Wigner
and symplectic transforms, Gabor multipliers, Riesz diagnostics,
biorthogonal inversion and underspread factorization, all over dense
complex matrices with a fixed set of normalizations making the finite
Poisson summation formula hold with constant one.
"""

from .errors import (
    BadExponentError,
    DegenerateWindowError,
    DimensionMismatchError,
    DivisionByZeroError,
    EvenDimensionError,
    FormatError,
    FullLatticeError,
    LatticeMismatchError,
    NonDivisorError,
    NonFiniteError,
    NotRieszError,
    NotSeparableError,
    ParityError,
    QhalError,
    SupportViolationError,
)
from .phase_space import (
    Lattice,
    LatticeSequence,
    PhasePoint,
    QuotientFunction,
    QuotientIndex,
    adjoint_lattice,
    delta_sequence,
    fundamental_domain,
    make_general_lattice,
    make_separable_lattice,
    ones_sequence,
    quotient_reps,
    random_sequence,
    reduce_point,
    separable_profile,
    shift_sequence,
    symplectic_form,
)
from .operators import (
    hs_inner,
    hs_norm,
    operator_rank,
    parity_conjugate,
    rank_one,
    schatten_norm,
    tf_shift,
    translate,
)
from .transforms import (
    fourier_wigner,
    half_mod,
    inverse_fourier_wigner,
    inverse_symplectic_fourier_series,
    lift_quotient_function,
    periodize,
    spectrogram_samples,
    stft,
    symplectic_dft,
    symplectic_fourier_series,
    weyl_symbol,
)
from .convolutions import (
    SynthesisMap,
    fs_of_op_op_conv,
    fw_of_seq_op_conv,
    gabor_multiplier,
    mixed_associativity_defect,
    module_associativity_defect,
    op_op_conv,
    seq_op_conv,
    seq_seq_conv,
    synthesis_map,
)
from .analysis import (
    ApproxReport,
    MaskRecovery,
    RieszReport,
    TauberianReport,
    best_approximation,
    biorthogonal_generator,
    gram_matrix,
    nonassociativity_witness,
    recover_mask,
    riesz_report,
    tauberian_diagnostics,
    underspread_divide,
)
from .windows import delta_window, gaussian_window, named_window, ones_window, random_window

__version__ = "0.1.0"

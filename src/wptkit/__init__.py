"""Design toolkit for two-coil inductive wireless power links.

Covers the full chain for area-constrained implants: exact two-port
network algebra, the coupled-coil link model (optimal frequency and
inductance), planar spiral geometry synthesis, layered-tissue dielectric
modelling, L-section matching-network synthesis, efficiency/SAR
budgeting and N-stage rectifier sizing.
"""

from .coil import (
    CoilPair,
    ExtractedParams,
    LinkAuxiliaries,
    PortPair,
    asymmetric_partner,
    coil_abcd,
    coil_s,
    coil_z,
    extract_params,
    f_opt,
    l_opt,
    link_auxiliaries,
    s21_mag,
    s_max,
)
from .efficiency import (
    MaxEfficiency,
    PteReport,
    SarBudget,
    gamma_factor,
    pte_link,
    pte_max,
    pte_two_port,
    sar_constrained_pdl,
)
from .errors import (
    DegenerateNetworkError,
    InfeasibleDesignError,
    TouchstoneFormatError,
    UnmatchableError,
    WptError,
)
from .harvester import (
    DesignSpaceResult,
    HarvesterConstraints,
    HarvesterSpec,
    RectifierInput,
    bessel_i0,
    design_space,
    minimum_stage_count,
    rect_input,
    stage_scaling_model,
    v_out,
)
from .imn import (
    ElementKind,
    ImnSolution,
    ImnSynthesis,
    LSectionIMN,
    MatchingElement,
    assemble_link,
    series_resonance_capacitor,
    synthesize_imn,
    verify_match,
)
from .netcore import (
    Representation,
    TwoPortMatrix,
    abcd_matrix,
    abcd_to_s,
    abcd_to_z,
    cascade,
    cascade_all,
    input_reflection,
    s_matrix,
    s_to_abcd,
    s_to_z,
    z_matrix,
    z_to_abcd,
    z_to_s,
)
from .pipeline import DesignReport, DesignSpec, load_design_spec, run_design, spec_from_dict
from .spiral import (
    CIRCULAR,
    FabConstraints,
    HEXAGONAL,
    OCTAGONAL,
    SQUARE,
    ShapeCoefficients,
    SpiralGeometry,
    ac_resistance,
    estimate_k,
    inductance,
    modified_wheeler,
    mutual_inductance,
    synthesize,
)
from .tissue import (
    ColeColeLayer,
    NetworkTable,
    TissueStack,
    complex_permittivity,
    default_implant_stack,
    effective_conductivity,
    import_override,
    ladder_two_port,
    loss_scaling,
    modified_coil_abcd,
)
from .touchstone import (
    TouchstoneFormat,
    TouchstoneRecord,
    parse_touchstone,
    read_touchstone,
    record_from_matrices,
    write_touchstone,
)

__version__ = "0.1.0"

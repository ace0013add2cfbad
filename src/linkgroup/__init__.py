"""Link diagrams to fundamental-group presentations of closed 3-manifolds,
with isomorphism-sensitive invariants for telling the groups apart.

The pipeline: a blackboard framed link diagram (framing = self-writhe) is
adjusted with curls until each component carries its intended surgery
coefficient, the presentation of the complement's fundamental group is read
off crossing by crossing, filling relators close off the surgery tori, and the
resulting group is profiled by abelianization, homomorphism counts into a
fixed catalog of finite groups, and low-index subgroup counts.  Profiles are
compared entry by entry; a difference is a replayable witness that the two
groups, hence the two manifolds, differ.
"""

from .words import Word
from .diagrams import (
    Crossing,
    DiagramStructureError,
    DiagramSyntaxError,
    LinkDiagram,
    blackboardize,
    parse_diagram,
    self_writhes,
    serialize_diagram,
    validate,
)
from .presentations import (
    GroupPresentation,
    PresentationSyntaxError,
    Relator,
    fundamental_group,
    parse_presentation,
    serialize_presentation,
    tietze_simplify,
    wirtinger,
)
from .homology import first_homology
from .permgroups import Catalog, FiniteGroup, load_catalog, parse_catalog
from .quotients import (
    HomCount,
    InvariantProfile,
    ProfileConfig,
    SubgroupCount,
    Verdict,
    Witness,
    compare_profiles,
    count_homs,
    distinguish,
    low_index_single,
    low_index_subgroups,
    profile,
    search_program,
    verify_witness,
)
from .gems import (
    FourGraph,
    FourGraphError,
    gem_report,
    parse_fourgraph,
    residues,
    serialize_fourgraph,
)
from .corpus import CorpusEntry, load_corpus

__version__ = "1.0.0"

__all__ = [
    "Word",
    "Crossing", "DiagramStructureError", "DiagramSyntaxError",
    "LinkDiagram", "blackboardize", "parse_diagram", "self_writhes",
    "serialize_diagram", "validate",
    "GroupPresentation", "PresentationSyntaxError",
    "Relator", "fundamental_group", "parse_presentation",
    "serialize_presentation", "tietze_simplify", "wirtinger",
    "first_homology",
    "Catalog", "FiniteGroup", "load_catalog", "parse_catalog",
    "HomCount", "InvariantProfile", "ProfileConfig", "SubgroupCount",
    "Verdict", "Witness", "compare_profiles", "count_homs", "distinguish",
    "low_index_single", "low_index_subgroups", "profile", "search_program",
    "verify_witness",
    "FourGraph", "FourGraphError", "gem_report", "parse_fourgraph",
    "residues", "serialize_fourgraph",
    "CorpusEntry", "load_corpus",
    "__version__",
]

"""Toolkit for deciding when a free finite-group action on a closed
orientable surface of genus 2 extends over a handlebody.

The pipeline: finite groups are built from presentations by coset
enumeration (or from built-in constructors), surface homomorphisms are
4-tuples of images of the surface generators, and extendability witnesses
are searched in a bounded orbit of the commutator [x1,y1] under ten twist
substitutions.  A separate rule engine classifies groups by whether their
Bogomolov multiplier vanishes, which decides the question wholesale for
many groups.
"""

__version__ = "0.1.0"

from .words import (Word, WordSyntaxError, UnknownGeneratorError, invert,
                    parse_word, print_word, default_names)
from .twists import sigma, apply, commutator_base
from .orbit import OrbitSet, generate_c0, contains, root_word, replay_path
from .groups import (FiniteGroup, Presentation, PresentationError,
                     CosetCapExceeded, AutCapExceeded, coset_enumerate,
                     evaluate_in_group, cyclic, semidirect_pq, heisenberg,
                     automorphisms, pair_orbit_count,
                     single_aut_orbit_certificate)
from .bogomolov import (B0Status, ExtendVerdict, b0_status,
                        samperton_verdict, is_extraspecial,
                        recognize_direct_product, all_sylows_abelian)
from .homs import (Epimorphism, RelationViolated, NotGenerating,
                   QuadrupleCapExceeded, Verdict, WitnessReport, evaluate,
                   handlebody_witness, standard_metacyclic_images,
                   r3_criterion_word, r_cubed_criterion, partner_pairs,
                   batch_pair_witnesses, quadruple_search)
from .kernel_orbit import (KernelClassCapExceeded, kernel_keys, kernel_orbit,
                           intersection_avoids_c0, fiber_group_order,
                           IntersectionReport)
from .config import RunConfig, ConfigError, parse_config, load_config

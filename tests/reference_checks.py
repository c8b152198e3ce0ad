"""Reference checks and oracles that tests compare the package against.

A hereditary-pair validator on a sample, reduced cosyzygy sequences,
class intersection, the image factorization, splitting of module and
span sequences by solving for a section, composition factors (the
closed form of a class in K0), the K0 relation harvest over every
generator pair, and the span map classes (cofibrations and acyclic
fibrations) read off componentwise cokernels and kernels.  Each is built
from the package's own constructions.  ``clear_memo_tables`` puts the
package's memo tables back to the state of a fresh process.
"""

import importlib
import pkgutil

import waldcat
from waldcat.algebra import (
    corestrict,
    ext1,
    hom_basis,
    identity_morphism,
    solve_map,
    submodule_from_columns,
)
from waldcat.errors import ValidationError
from waldcat.homological import (
    SubcategorySpec,
    cosyzygy,
    short_exact_sequences,
    simple_table,
    strip_injective_summands,
)
from waldcat.diagrams import (
    diagram_cokernel,
    diagram_identity,
    diagram_kernel,
    solve_diagram_map,
)
from waldcat.linalg import column_space_basis
from waldcat.spans import span_in_I, span_in_P


def image_factorization(f):
    """Split f as (mono) o (epi) through its image; returns (img, epi, mono)."""
    img, incl = submodule_from_columns(f.cod, column_space_basis(f.matrix))
    return img, corestrict(f, incl), incl


def is_split(ses):
    """True when the epi of the short exact sequence ``ses`` admits a
    module-map section."""
    section = solve_map(
        ses.quot, ses.mid, post=[(ses.epi, identity_morphism(ses.quot))]
    )
    return section is not None


def spec_intersection(parts):
    parts = list(parts)
    if not parts:
        raise ValidationError("intersection needs at least one part")
    return SubcategorySpec(
        "intersection(%s)" % ", ".join(part.name for part in parts),
        lambda m: all(part.contains(m) for part in parts),
    )


def pair_validate(pair, samples):
    """Check orthogonality and the hereditary closure properties on a sample.

    Reports Ext^1(left, right) != 0 violations, kernels of surjections
    between left-class objects leaving the left class, and cokernels of
    injections between right-class objects leaving the right class.  The
    closure checks walk ``short_exact_sequences(samples, d)`` for the
    largest sample dimension d, so ``samples`` must be a full enumeration
    (every isomorphism class up to d) for them to be exhaustive.
    ``checked`` counts the sequences whose two right-hand terms are
    left-class ("epis") and those whose two left-hand terms are
    right-class ("monos").  The sweep yields one sequence per orbit of
    Ext classes, so the counts and failure lists are per orbit
    representative.
    """
    left = [m for m in samples if pair.in_left(m)]
    right = [m for m in samples if pair.in_right(m)]
    orth_failures = []
    for c_obj in left:
        for r_obj in right:
            if ext1(c_obj, r_obj).dimension != 0:
                orth_failures.append((c_obj.digest, r_obj.digest))
    left_kernel_failures = []
    right_cokernel_failures = []
    checked_epis = checked_monos = 0
    bound = max((m.dim for m in samples), default=0)
    for i_quot, i_sub, mid in short_exact_sequences(samples, bound):
        sub, quot = samples[i_sub], samples[i_quot]
        if pair.in_left(mid) and pair.in_left(quot):
            checked_epis += 1
            if not pair.in_left(sub):
                left_kernel_failures.append((mid.digest, quot.digest))
        if pair.in_right(sub) and pair.in_right(mid):
            checked_monos += 1
            if not pair.in_right(quot):
                right_cokernel_failures.append((sub.digest, mid.digest))
    return {
        "ok": not (orth_failures or left_kernel_failures or right_cokernel_failures),
        "orthogonality_failures": orth_failures,
        "left_kernel_failures": left_kernel_failures,
        "right_cokernel_failures": right_cokernel_failures,
        "checked": {
            "cross_pairs": len(left) * len(right),
            "epis": checked_epis,
            "monos": checked_monos,
        },
    }


def composition_vector(m):
    """The composition factors of m, one count per simple S in
    ``simple_table`` order: [m : S] = dim Hom(P(S), m) / dim End S, with
    P(S) the projective cover of S.  Composition factors are additive on
    short exact sequences, so this is the class of m in K0 = Z^n."""
    counts = []
    for row in simple_table(m.algebra):
        count, rest = divmod(len(hom_basis(row.projective, m)), row.end_dim)
        assert rest == 0, "dim Hom(P(S), m) is not a multiple of dim End S"
        counts.append(count)
    return counts


def harvest_reference(generators, classes):
    """The K0 relation rows of ``generators``, as lists in order, from a
    walk over every ordered generator pair (quot, sub) with
    quot.dim + sub.dim at most the largest generator dimension, zero-term
    pairs included, realizing each pair's split class to check
    exactness.  Each orbit middle found among the generators (through
    the ``ClassIndex`` ``classes``) gives [mid] - [sub] - [quot]; rows
    after their first copy and the zero row are dropped."""
    if not generators:
        return []
    bound = max(m.dim for m in generators)
    position = {classes.find(m): i for i, m in enumerate(generators)}
    rows = []
    for i_quot, quot in enumerate(generators):
        for i_sub, sub in enumerate(generators):
            if quot.dim + sub.dim > bound:
                continue
            ext = ext1(quot, sub)
            ext.realize((0,) * ext.dimension)  # raises unless exact
            for mid in ext.middles:
                i_mid = position.get(classes.find(mid))
                if i_mid is None:
                    continue
                row = [0] * len(generators)
                row[i_mid] += 1
                row[i_sub] -= 1
                row[i_quot] -= 1
                if any(row) and row not in rows:
                    rows.append(row)
    return rows


def clear_memo_tables():
    """Empty every ``memoized`` table of the package, as in a fresh
    process: each module-level object of a waldcat module with a
    ``cache_clear`` has its table emptied.  The per-instance tables of
    specs and Waldhausen structures go with their objects."""
    for info in pkgutil.iter_modules(waldcat.__path__):
        module = importlib.import_module("waldcat." + info.name)
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def iterated_cosyzygies(m, steps):
    """Reduced cosyzygy sequence: strip injective summands after each step.

    Returns the list of successive reduced cosyzygies, stopping early once
    the zero module appears.
    """
    out = []
    current = strip_injective_summands(m)
    for _ in range(steps):
        if current.dim == 0:
            break
        current = strip_injective_summands(cosyzygy(current))
        out.append(current)
        if current.dim == 0:
            break
    return out


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def span_is_split(ses):
    """Look for a section of the epi of the span sequence ``ses`` that is
    a map of spans."""
    return span_section(ses.epi) is not None


def span_section(e):
    """A span morphism s with e o s = identity, or None."""
    return solve_diagram_map(e.cod, e.dom, post=[(e, diagram_identity(e.cod))])


def span_is_cofibration(m, pair):
    """Componentwise injections between left-class spans whose cokernel span
    is again in the left class."""
    if not span_in_P(m.dom, pair) or not span_in_P(m.cod, pair):
        return False
    if not m.is_mono():
        return False
    cok_span, _ = diagram_cokernel(m)
    return span_in_P(cok_span, pair)


def span_is_acyclic_fibration(m, pair):
    """Componentwise surjections whose kernel span is in the right class."""
    if not m.is_epi():
        return False
    ker_span, _ = diagram_kernel(m)
    return span_in_I(ker_span, pair)

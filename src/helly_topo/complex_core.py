"""Finite simplicial complexes and labeled subcomplex families.

The ambient space is a finite abstract simplicial complex; the regions of
interest are face-closed subcomplexes of it.  Intersections and unions of
subcomplexes are exact simplex-set operations, so every derived region is
again a subcomplex of the same ambient complex and the polyhedral
intersection coincides with the simplex-set intersection.  A subcomplex
holds its simplex set as an int bitmask over one cached index of its
ambient, so these operations are ``&`` and ``|``.

Simplices are stored as strictly increasing tuples of non-negative integer
vertex ids; complexes compare by simplex-set equality.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

from .errors import ContractViolation, MalformedInput, ValidationError


def as_simplex(vertices) -> tuple:
    """Normalize a vertex collection to a sorted tuple of distinct ids."""
    vs = tuple(vertices)
    if not vs:
        raise MalformedInput("a simplex needs at least one vertex")
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise MalformedInput(f"vertex ids must be non-negative integers, got {v!r}")
    if len(set(vs)) != len(vs):
        raise MalformedInput(f"duplicate vertex inside simplex {list(vs)}")
    return tuple(sorted(vs))


def faces_of(simplex):
    """Every nonempty subset of the simplex's vertex set (including itself)."""
    out = []
    for k in range(1, len(simplex) + 1):
        out.extend(itertools.combinations(simplex, k))
    return out


def face_closure(simplices) -> frozenset:
    closed = set()
    for s in simplices:
        closed.update(faces_of(s))
    return frozenset(closed)


# bytes.translate table turning a binary string into 0/1 selector bytes
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _select(items, mask):
    """Iterator over items[i] for every set bit i of mask (bits past the
    end of items are ignored)."""
    return itertools.compress(items, bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS))


class _Index:
    """A complex's simplices in (dimension, vertices) order; bit i of a
    subcomplex mask stands for ``order[i]``, so vertices are bits 0..V-1.

    ``dim_masks[k]`` holds the k-simplices, ``facets[i]`` the bits of
    ``order[i]``'s codimension-1 faces, ``closures[i]`` those of all its
    faces (itself included) and ``edges[j]`` the vertex bits of the edge
    at bit V + j.  ``roots`` is ``list(range(V))``, the union-find start
    that homology copies for each component count.  Looking up a facet
    that is not in the complex raises KeyError, so the build checks face
    closure (codimension-1 faces suffice by induction).
    """

    __slots__ = ("order", "bit", "dim_masks", "facets", "closures", "n_vertices", "edges",
                 "roots")

    def __init__(self, simplices):
        self.order = tuple(sorted(simplices, key=lambda s: (len(s), s)))
        self.bit = {s: i for i, s in enumerate(self.order)}
        dim_masks = []
        facets = []
        closures = []
        for i, s in enumerate(self.order):
            if len(s) > len(dim_masks):
                dim_masks.append(0)
            dim_masks[-1] |= 1 << i
            facet_mask = closure = 0
            if len(s) > 1:
                for j in range(len(s)):
                    f = self.bit[s[:j] + s[j + 1:]]
                    facet_mask |= 1 << f
                    closure |= closures[f]
            facets.append(facet_mask)
            closures.append(closure | 1 << i)
        self.dim_masks = tuple(dim_masks)
        self.facets = tuple(facets)
        self.closures = tuple(closures)
        self.n_vertices = dim_masks[0].bit_count() if dim_masks else 0
        self.roots = list(range(self.n_vertices))
        self.edges = tuple(
            (self.bit[s[:1]], self.bit[s[1:]]) for s in self.order if len(s) == 2
        )

    def count(self, mask: int, k: int) -> int:
        """Number of k-simplices in mask."""
        return (mask & self.dim_masks[k]).bit_count() if 0 <= k < len(self.dim_masks) else 0


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex plus a declared embedding dimension.

    ``declared_embedding_dim`` is the caller's promise that every
    subcomplex carries no homology in degrees >= that value.  The built-in
    planar grid ambients guarantee it with value 2.  A declaration above
    the complex's dimension holds; one equal to it holds iff the top
    boundary map is injective, which `run_verifier` checks for the rows
    that read it.

    Every simplex must be in ``as_simplex`` normal form and the set must be
    face-closed; construction checks both and builds ``_index``.
    """

    simplices: frozenset
    declared_embedding_dim: int

    def __post_init__(self):
        if not isinstance(self.simplices, frozenset):
            object.__setattr__(self, "simplices", frozenset(self.simplices))
        if self.declared_embedding_dim < 1:
            raise ContractViolation("declared_embedding_dim must be >= 1")
        for s in self.simplices:
            if not isinstance(s, tuple) or as_simplex(s) != s:
                raise MalformedInput(
                    f"simplex {s!r} must be a tuple of vertices in increasing order"
                )
        try:
            index = _Index(self.simplices)
        except KeyError:
            raise MalformedInput("complex is not closed under taking faces") from None
        self.__dict__["_index"] = index
        if self.dimension > self.declared_embedding_dim:
            raise ContractViolation(
                f"complex dimension {self.dimension} exceeds declared embedding "
                f"dimension {self.declared_embedding_dim}"
            )

    @functools.cached_property
    def dimension(self) -> int:
        """Max simplex dimension; -1 for the empty complex."""
        return len(self._index.dim_masks) - 1


@dataclass(frozen=True, init=False)
class Subcomplex:
    """A face-closed subset of a parent complex's simplices.

    Held as ``mask``, a bitmask over the parent's simplex index; the
    simplices are decoded from it on first use.  Building one from
    simplices checks that each is in the parent and that the OR of their
    facet masks lies inside ``mask``.  ``_from_mask`` checks nothing: masks
    derived by ``&`` and ``|`` from face-closed ones are face-closed.

    ``parts`` holds the vertex masks of the 1-skeleton's connected
    components, or None when they are unknown.  Generated blobs carry their
    one part, a one-member intersection or union is the member itself with
    its parts, and a union of members that all carry parts merges theirs;
    every other subcomplex (an intersection of two or more members, a
    parsed member) leaves it None and homology counts components by
    union-find.  It takes no part in equality.
    """

    parent: SimplicialComplex
    mask: int
    parts: object = field(default=None, compare=False, repr=False)  # tuple of int, or None

    def __init__(self, parent: SimplicialComplex, member_simplices):
        members = frozenset(member_simplices)
        index = parent._index
        mask = need = 0
        for s in members:
            i = index.bit.get(s)
            if i is None:
                raise ValidationError(f"simplex {list(s)} is not in the ambient complex")
            mask |= 1 << i
            need |= index.facets[i]
        if need & ~mask:
            raise ValidationError("subcomplex is not closed under taking faces")
        self.__dict__.update(parent=parent, mask=mask, member_simplices=members)

    @classmethod
    def _from_mask(cls, parent: SimplicialComplex, mask: int, parts=None) -> "Subcomplex":
        """A subcomplex from a mask over ``parent``'s index that the caller
        guarantees is face-closed, with the caller's exact ``parts`` if known."""
        self = object.__new__(cls)
        self.__dict__.update(parent=parent, mask=mask, parts=parts)
        return self

    @functools.cached_property
    def member_simplices(self) -> frozenset:
        return frozenset(_select(self.parent._index.order, self.mask))

    @property
    def simplices(self) -> frozenset:
        return self.member_simplices

    @property
    def is_empty(self) -> bool:
        return not self.mask


@dataclass(frozen=True)
class SubcomplexFamily:
    """An ordered, labeled list of subcomplexes of one ambient complex.

    It keeps every intersection and union of its members that
    `intersect_members` and `union_members` build, for the family's life.
    """

    ambient: SimplicialComplex
    members: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.members) < 1:
            raise ContractViolation("a family needs at least one member")
        if len(self.labels) != len(self.members):
            raise ValidationError("labels and members must have the same length")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("member labels must be unique")
        for sub in self.members:
            if sub.parent is not self.ambient and sub.parent != self.ambient:
                raise ValidationError("all members must share the family's ambient complex")
        self.__dict__.update(_meets=_Lattice(self.members, _meet),
                             _joins=_Lattice(self.members, _join))

    @property
    def size(self) -> int:
        return len(self.members)

    def member_by_label(self, label: str) -> Subcomplex:
        for lab, sub in zip(self.labels, self.members):
            if lab == label:
                return sub
        raise ValidationError(f"no member labeled {label!r}")


def build_complex(maximal_simplices, declared_embedding_dim=None) -> SimplicialComplex:
    """Face closure of the given maximal simplices, canonically ordered.

    The embedding dimension defaults to the resulting complex dimension
    (at least 1).
    """
    simps = [as_simplex(s) for s in maximal_simplices]
    closed = face_closure(simps)
    dim = max((len(s) - 1 for s in closed), default=0)
    if declared_embedding_dim is None:
        declared_embedding_dim = max(1, dim)
    return SimplicialComplex(closed, declared_embedding_dim)


def _check_indices(family: SubcomplexFamily, indices) -> tuple:
    """The distinct selected member indices, sorted; bools are not indices."""
    size = len(family.members)
    idx = tuple(indices)
    last = -1  # None once the indices are not strictly increasing
    for i in idx:
        if (type(i) is not int and (not isinstance(i, int) or isinstance(i, bool))) \
                or not 0 <= i < size:
            raise ContractViolation(f"invalid member index {i!r} for family of size {size}")
        if last is not None:
            last = i if i > last else None
    if not idx:
        raise ContractViolation("index set must be nonempty")
    return idx if last is not None else tuple(sorted(set(idx)))


def _meet(a: Subcomplex, b: Subcomplex) -> Subcomplex:
    """Simplex-set intersection of two subcomplexes of one ambient; its
    ``parts`` are None.  An empty ``a`` is returned itself, which is
    exact: the intersection stays empty, and an empty subcomplex (a
    prefix's intersection or a parsed member) has ``parts`` None."""
    if not a.mask:
        return a
    return Subcomplex._from_mask(a.parent, a.mask & b.mask)


def _join(a: Subcomplex, b: Subcomplex) -> Subcomplex:
    """Simplex-set union of two subcomplexes of one ambient.  When both have
    ``parts``, the union's are theirs merged wherever they share a vertex:
    each edge of the union lies in a or b, so inside one of its parts."""
    parts = None
    if a.parts is not None and b.parts is not None:
        parts = list(a.parts)
        for part in b.parts:
            # the kept parts stay pairwise disjoint, so one pass absorbs
            # every part that meets the growing one
            disjoint = []
            for other in parts:
                if other & part:
                    part |= other
                else:
                    disjoint.append(other)
            disjoint.append(part)
            parts = disjoint
        parts = tuple(parts)
    return Subcomplex._from_mask(a.parent, a.mask | b.mask, parts)


class _Lattice(dict):
    """Sorted index tuple -> the meet or join of those members.  A missing
    tuple is built once: (i,) is members[i] itself, and a longer tuple is
    ``combine`` of its prefix's entry (itself built on demand) and its last
    member."""

    __slots__ = ("members", "combine")

    def __init__(self, members, combine):
        self.members = members
        self.combine = combine

    def __missing__(self, key):
        member = self.members[key[-1]]
        sub = self[key] = member if len(key) == 1 else self.combine(self[key[:-1]], member)
        return sub


def intersect_members(family: SubcomplexFamily, indices) -> Subcomplex:
    """Simplex-set intersection of the selected members (face-closed by construction).

    The intersection of one member is that member itself, with its
    ``parts``; an intersection of two or more members has ``parts`` None.
    The family keeps every intersection it is asked for, so each is built
    once, by one ``_meet`` of its prefix's (itself built on demand) and its
    last member: `run_verifier` asks for subfamilies in order of size, and
    each ledger entry costs one ``&``, or none when its prefix's
    intersection is empty: an empty intersection absorbs its extensions,
    and the entry is that empty subcomplex itself.
    """
    return family._meets[_check_indices(family, indices)]


def union_members(family: SubcomplexFamily, indices) -> Subcomplex:
    """Simplex-set union of the selected members (face-closed by construction).

    The union of one member is that member itself, with its ``parts``.
    When every selected member has ``parts``, the union's are theirs merged
    wherever they share a vertex: each edge of the union lies in one member,
    so inside one of that member's parts.  The family keeps every union it
    is asked for, so each is built once, by one ``_join`` of its prefix's
    (itself built on demand) and its last member: `run_verifier` asks for
    subfamilies in order of size, and each ledger entry costs one parts
    merge.
    """
    return family._joins[_check_indices(family, indices)]


def grid_complex(n: int) -> SimplicialComplex:
    """Standard triangulation of the n-by-n unit square grid.

    Vertices are numbered row-major on the (n+1)*(n+1) lattice; each unit
    cell is split along one diagonal.  Every subcomplex of this complex is
    planar, so the declared embedding dimension is 2.
    """
    if n < 1:
        raise ContractViolation("grid size must be >= 1")
    stride = n + 1
    tris = []
    for iy in range(n):
        for ix in range(n):
            a = iy * stride + ix
            b = a + 1
            c = a + stride
            d = c + 1
            tris.append((a, b, d))
            tris.append((a, c, d))
    return build_complex(tris, declared_embedding_dim=2)


def parse_family(text: str) -> SubcomplexFamily:
    """Parse the JSON family file format.

    Schema: {"ambient": [[v,...],...], "embedding_dim": d,
             "members": [{"label": str, "simplices": [[v,...],...]}, ...]}
    where simplex lists give maximal simplices and members are face-closed
    against the ambient complex.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"family file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("family file must be a JSON object")
    for key in ("ambient", "embedding_dim", "members"):
        if key not in data:
            raise ValidationError(f"family file is missing the {key!r} key")
    if not isinstance(data["embedding_dim"], int) or isinstance(data["embedding_dim"], bool):
        raise ValidationError("embedding_dim must be an integer")
    try:
        ambient = build_complex(data["ambient"], declared_embedding_dim=data["embedding_dim"])
    except MalformedInput as exc:
        raise ValidationError(f"bad ambient complex: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError("bad ambient complex: expected a list of vertex lists") from exc
    members_spec = data["members"]
    if not isinstance(members_spec, list):
        raise ValidationError("members must be a list")
    if len(members_spec) == 0:
        raise ContractViolation("family file declares zero members")
    members = []
    labels = []
    for pos, entry in enumerate(members_spec):
        if not isinstance(entry, dict) or "label" not in entry or "simplices" not in entry:
            raise ValidationError(f"member #{pos} must be an object with 'label' and 'simplices'")
        label = entry["label"]
        if not isinstance(label, str):
            raise ValidationError(f"member #{pos} label must be a string")
        try:
            simps = [as_simplex(s) for s in entry["simplices"]]
        except MalformedInput as exc:
            raise ValidationError(f"member {label!r}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"member {label!r}: expected a list of vertex lists") from exc
        mask = 0
        for s in sorted(face_closure(simps)):
            i = ambient._index.bit.get(s)
            if i is None:
                raise ValidationError(
                    f"member {label!r} lists simplex {list(s)} absent from the ambient complex"
                )
            mask |= 1 << i
        members.append(Subcomplex._from_mask(ambient, mask))  # a face closure is closed
        labels.append(label)
    return SubcomplexFamily(ambient, tuple(members), tuple(labels))


def load_family(path) -> SubcomplexFamily:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"family file is not valid UTF-8: {exc}") from exc
    return parse_family(text)

"""Finite simplicial complexes and labeled subcomplex families.

The ambient space is a finite abstract simplicial complex; the regions of
interest are face-closed subcomplexes of it.  Intersections and unions of
subcomplexes are exact simplex-set operations, so every derived region is
again a subcomplex of the same ambient complex and the polyhedral
intersection coincides with the simplex-set intersection.

Simplices are stored as strictly increasing tuples of non-negative integer
vertex ids; complexes compare by simplex-set equality.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

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


def _is_face_closed(simplices) -> bool:
    # checking codimension-1 faces suffices by induction
    sset = set(simplices)
    for s in sset:
        if len(s) > 1:
            for i in range(len(s)):
                if s[:i] + s[i + 1:] not in sset:
                    return False
    return True


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex plus a declared embedding dimension.

    ``declared_embedding_dim`` is the caller's promise that every
    subcomplex carries no homology in degrees >= that value.  The built-in
    planar grid ambients guarantee it with value 2; user-supplied complexes
    carry it as a declaration that reports merely echo.
    """

    simplices: frozenset
    declared_embedding_dim: int

    def __post_init__(self):
        if not isinstance(self.simplices, frozenset):
            object.__setattr__(self, "simplices", frozenset(self.simplices))
        if self.declared_embedding_dim < 1:
            raise ContractViolation("declared_embedding_dim must be >= 1")
        if not _is_face_closed(self.simplices):
            raise MalformedInput("complex is not closed under taking faces")
        if self.dimension > self.declared_embedding_dim:
            raise ContractViolation(
                f"complex dimension {self.dimension} exceeds declared embedding "
                f"dimension {self.declared_embedding_dim}"
            )

    @property
    def dimension(self) -> int:
        """Max simplex dimension; -1 for the empty complex."""
        return max((len(s) - 1 for s in self.simplices), default=-1)

    @property
    def is_empty(self) -> bool:
        return not self.simplices

    def counts(self) -> dict:
        """Number of k-simplices per dimension k."""
        out = {}
        for s in self.simplices:
            out[len(s) - 1] = out.get(len(s) - 1, 0) + 1
        return out


@dataclass(frozen=True)
class Subcomplex:
    """A face-closed subset of a parent complex's simplices."""

    parent: SimplicialComplex
    member_simplices: frozenset

    def __post_init__(self):
        if not isinstance(self.member_simplices, frozenset):
            object.__setattr__(self, "member_simplices", frozenset(self.member_simplices))
        for s in self.member_simplices:
            if s not in self.parent.simplices:
                raise ValidationError(f"simplex {list(s)} is not in the ambient complex")
        if not _is_face_closed(self.member_simplices):
            raise ValidationError("subcomplex is not closed under taking faces")

    @property
    def simplices(self) -> frozenset:
        return self.member_simplices

    @property
    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.member_simplices), default=-1)

    @property
    def is_empty(self) -> bool:
        return not self.member_simplices


@dataclass(frozen=True)
class SubcomplexFamily:
    """An ordered, labeled list of subcomplexes of one ambient complex."""

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
            if sub.parent != self.ambient:
                raise ValidationError("all members must share the family's ambient complex")

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


def _check_indices(family: SubcomplexFamily, indices) -> list:
    idx = sorted(set(indices))
    if not idx:
        raise ContractViolation("index set must be nonempty")
    for i in idx:
        if not isinstance(i, int) or i < 0 or i >= family.size:
            raise ContractViolation(f"invalid member index {i!r} for family of size {family.size}")
    return idx


def intersect_members(family: SubcomplexFamily, indices) -> Subcomplex:
    """Simplex-set intersection of the selected members (face-closed by construction)."""
    idx = _check_indices(family, indices)
    sets = [family.members[i].member_simplices for i in idx]
    return Subcomplex(family.ambient, frozenset.intersection(*sets))


def union_members(family: SubcomplexFamily, indices) -> Subcomplex:
    """Simplex-set union of the selected members."""
    idx = _check_indices(family, indices)
    sets = [family.members[i].member_simplices for i in idx]
    return Subcomplex(family.ambient, frozenset.union(*sets))


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
        closed = face_closure(simps)
        for s in sorted(closed):
            if s not in ambient.simplices:
                raise ValidationError(
                    f"member {label!r} lists simplex {list(s)} absent from the ambient complex"
                )
        members.append(Subcomplex(ambient, closed))
        labels.append(label)
    return SubcomplexFamily(ambient, tuple(members), tuple(labels))


def load_family(path) -> SubcomplexFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_family(fh.read())

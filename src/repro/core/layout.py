"""One pass's layout, placed once for both engines.

:func:`lay_out` takes ``(site, cores)`` pairs and says which clusters
run (a site with no cores runs none), where each one's combined object
goes (the sync plan), which one bursts, and the slave ids of every crew
and of the burst cluster's bought slaves. The runtime driver builds its
mailbox nodes over the slots, the simulator its costed ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..errors import ConfigurationError
from .sync import SyncSpec

if TYPE_CHECKING:
    from ..options import ScaleOptions
    from ..scale.revocation import RevocationSpec

__all__ = ["Slot", "PassLayout", "lay_out"]


@dataclass(frozen=True)
class Slot:
    """One cluster: its master's place in the sync plan (``parent``
    ``None``: it uploads to the head), whether that upload crosses a site
    boundary (only then is it encoded), its crew's slave ids and, on the
    burst cluster of a revocable pass, the spot die."""

    name: str
    site: str
    cores: int
    first_slave: int
    parent: str | None
    children: tuple[str, ...]
    cross_site: bool
    revocation: RevocationSpec | None

    @property
    def slave_ids(self) -> range:
        return range(self.first_slave, self.first_slave + self.cores)


@dataclass(frozen=True)
class PassLayout:
    """The slots in plan order (a parent before its children), the plan
    roots the head waits for, the burst cluster's slot (``None``: nothing
    bursts) and ``spares``, the ids a scale-up may claim: numbered after
    every static slave, and empty unless the pass autoscales."""

    slots: tuple[Slot, ...]
    roots: tuple[str, ...]
    burst: Slot | None
    spares: range

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(slot.name for slot in self.slots)


def lay_out(
    sites: Iterable[tuple[str, int]],
    head_site: str,
    sync: SyncSpec,
    scale: ScaleOptions | None = None,
) -> PassLayout:
    """Lay one pass out over ``sites``, in the configuration's order but
    for the head's site, which goes first: in a tree the last hop to the
    head is then the head-site master's, off the WAN and unencoded. A
    ``tree`` uses heap indexing (cluster ``i`` uploads to cluster
    ``(i-1)//fanout``; ``fanout=1`` is a chain). Under an enabled
    ``scale`` the first active site that is not the head's bursts."""
    active = sorted(
        ((site, cores) for site, cores in sites if cores > 0),
        key=lambda pair: pair[0] != head_site,
    )
    if not active:
        raise ConfigurationError("a pass needs at least one site with cores")
    names = [f"{site}-cluster" for site, _ in active]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate sites: {[s for s, _ in active]}")
    fanout = sync.fanout if sync.topology == "tree" else 0
    bursting = None if scale is None else next(
        (site for site, _ in active if site != head_site), None
    )
    slots, first = [], 0
    for i, (name, (site, cores)) in enumerate(zip(names, active)):
        parent = names[(i - 1) // fanout] if fanout and i else None
        slots.append(Slot(
            name, site, cores, first, parent,
            tuple(names[i * fanout + 1:(i + 1) * fanout + 1]),
            cross_site=parent is not None or site != head_site,
            revocation=scale.revocation_spec if site == bursting else None,
        ))
        first += cores
    burst = next((slot for slot in slots if slot.site == bursting), None)
    headroom = scale.id_headroom(burst.cores) if burst is not None else 0
    return PassLayout(
        tuple(slots), tuple(s.name for s in slots if s.parent is None), burst,
        range(first, first + headroom),
    )

"""Safe, stackable method interposition.

The observability layer (`repro.obs.Observer`) wraps protocol methods
on *instances*, and more than one owner may.  Naive
wrapping corrupts the object when two interposers attach, or when one
detaches while another is still installed (the classic "restore the
original" dance restores a stale wrapper).  This module keeps the chain
explicit: every wrapper records its owner and the callable underneath
it, so any owner can be removed from anywhere in the chain and the
remainder is relinked in place.
"""

from __future__ import annotations

from typing import Any, Callable, List

__all__ = ["interpose", "remove_interposers", "interposers_of"]


class _Box:
    """Mutable indirection so relinking the chain retargets live wrappers."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn


def interpose(obj: Any, name: str, owner: Any,
              factory: Callable[[Callable], Callable]) -> Callable:
    """Wrap bound method ``name`` of ``obj`` on behalf of ``owner``.

    ``factory(call_inner)`` must return the replacement callable; it
    receives ``call_inner``, a callable that forwards to whatever sits
    underneath this wrapper *at call time* (so detaching a mid-chain
    interposer later does not strand this wrapper on a stale target).
    One owner may interpose the same method once; repeated calls for the
    same (obj, name, owner) are idempotent and keep the first wrapper.
    """
    current = getattr(obj, name)
    node = current
    while getattr(node, "_interposed_owner", None) is not None:
        if node._interposed_owner is owner:
            return current  # already attached; keep the existing chain
        node = node._interposed_box.fn
    box = _Box(current)
    wrapper = factory(lambda *a, **kw: box.fn(*a, **kw))
    wrapper._interposed_owner = owner
    wrapper._interposed_box = box
    setattr(obj, name, wrapper)
    return wrapper


def remove_interposers(obj: Any, name: str, owner: Any) -> int:
    """Remove every wrapper installed by ``owner`` on ``obj.name``.

    The rest of the chain is preserved in order.  When the chain
    empties, the instance attribute is dropped so the class method
    shows through again.  Returns the number of wrappers removed.
    """
    chain: List[Callable] = []
    node = getattr(obj, name)
    while getattr(node, "_interposed_owner", None) is not None:
        chain.append(node)
        node = node._interposed_box.fn
    base = node  # the original (bound class method)
    kept = [w for w in chain if w._interposed_owner is not owner]
    removed = len(chain) - len(kept)
    if not removed:
        return 0
    # Relink survivors bottom-up onto the base via their live boxes.
    below = base
    for w in reversed(kept):
        w._interposed_box.fn = below
        below = w
    if kept:
        setattr(obj, name, kept[0])
    else:
        cls_fn = getattr(type(obj), name, None)
        if cls_fn is not None and getattr(base, "__func__", None) is cls_fn:
            # base is the plain class method: drop the shadowing
            # instance attribute so the class definition shows through.
            delattr(obj, name)
        else:
            setattr(obj, name, base)
    return removed


def interposers_of(obj: Any, name: str) -> List[Any]:
    """The owners currently interposed on ``obj.name``, outermost first."""
    owners = []
    node = getattr(obj, name)
    while getattr(node, "_interposed_owner", None) is not None:
        owners.append(node._interposed_owner)
        node = node._interposed_box.fn
    return owners

"""The registry of process-wide memos.  Each memo of exact expansions and
rule checks registers where it is defined, and ``clear()`` empties them
all, so a build after ``clear()`` is a cold build."""

__all__ = ["clear", "register"]

#: name -> memo: an ``lru_cache`` wrapper or a dict.
_MEMOS: dict = {}


def register(memo, name=None):
    """Register ``memo`` under ``name``, by default its module and qualified
    name, and return it, so that ``@register`` can stack on ``@lru_cache``."""
    _MEMOS[name or f"{memo.__module__}.{memo.__qualname__}"] = memo
    return memo


def clear() -> None:
    """Empty every registered memo."""
    for memo in _MEMOS.values():
        (memo.clear if isinstance(memo, dict) else memo.cache_clear)()

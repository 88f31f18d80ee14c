"""Dense tensor with a recorded-operation tape for reverse-mode gradients.

Values live in numpy arrays (float32 in production, float64 when gradients
are being checked against finite differences). Every operation that builds
on tensors records its parents and a backward closure; calling
``Tensor.backward()`` on a scalar result replays the tape in reverse and
releases it as it goes. An optional per-leaf callback receives each
requires-grad leaf as soon as its gradient is final, which lets an
optimizer update a parameter inside backward (``Adam.step``).
"""
from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """An operand's dimensions violate the operation's contract."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class BackwardError(RuntimeError):
    """Backward was requested without a recorded forward pass."""


_GRAD_ENABLED = True


def check_finite(name: str, data: np.ndarray) -> None:
    """Raise NonFiniteError if *data* contains NaN or Inf."""
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{name}: output contains NaN or Inf")


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager suppressing tape recording (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """N-dimensional real array with an optional gradient buffer.

    ``data`` has a logical shape and any memory layout (4-D activations and
    conv weights are stored channels-last); ``grad``, when present, matches
    ``data`` in shape, dtype and layout. Tensors created by operations carry
    parent links forming the tape used by :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_op(data: np.ndarray, parents: Sequence["Tensor"],
                backward_fn: Callable[[np.ndarray], None],
                name: str = "op") -> "Tensor":
        """Wrap an op result, recording the tape entry if grad mode is on."""
        check_finite(name, data)
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.grad is not None})"

    # -- reverse-mode differentiation ------------------------------------------

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add *grad* (any memory layout) into this tensor's gradient.

        Every gradient has its tensor's memory layout whatever layout the op
        hands over: channels-last activations get channels-last gradients,
        and a parameter's gradient matches the parameter and its Adam
        moments. A first gradient is adopted as it is when the op passes
        ``owned=True`` (an array it has just allocated and hands to no one
        else) and its dtype and strides match ``data``; otherwise it is
        copied into ``np.empty_like(data)``.
        """
        if self.grad is not None:
            self.grad += grad
        elif owned and grad.dtype == self.data.dtype and grad.strides == self.data.strides:
            self.grad = grad
        else:
            self.grad = np.empty_like(self.data)
            self.grad[...] = grad

    def backward(self, on_leaf: Callable[["Tensor"], None] | None = None) -> None:
        """Propagate gradients from this scalar back through the tape.

        The tape is released as it is replayed: once a recorded node's
        backward closure has run, its parents, its closure (and with it the
        arrays the op saved for backward) and its gradient are dropped.
        Without *on_leaf*, leaves keep their ``.grad``. A second backward
        through a released node raises BackwardError.

        ``on_leaf(leaf)`` runs for each requires-grad leaf the loss reaches,
        right after the closure of the leaf's last consumer: its ``.grad``
        (None if no closure wrote one) is final then, and nothing later in
        the walk reads the leaf's data, so the callback may update the data
        in place and drop the gradient.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        if self._backward_fn is None:
            raise BackwardError("backward() called on a tensor with no recorded forward pass")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        # consumers still to run, per leaf: a leaf is handed over at zero
        pending: dict[int, int] = {}
        if on_leaf is not None:
            for node in order:
                for parent in _leaf_parents(node):
                    pending[id(parent)] = pending.get(id(parent), 0) + 1

        self._accumulate(np.ones_like(self.data))
        # popping drops the walk's own reference, so a node is freed as soon
        # as its closure and its children's parent links are gone
        while order:
            node = order.pop()
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                node._backward_fn(node.grad)
            leaves = _leaf_parents(node) if on_leaf is not None else ()
            node._parents = ()
            node._backward_fn = _released
            node.grad = None
            for leaf in leaves:
                pending[id(leaf)] -= 1
                if not pending[id(leaf)]:
                    on_leaf(leaf)


def _leaf_parents(node: Tensor) -> list[Tensor]:
    """The distinct requires-grad leaves among *node*'s parents."""
    leaves: list[Tensor] = []
    for parent in node._parents:
        if (parent.requires_grad and parent._backward_fn is None
                and all(parent is not leaf for leaf in leaves)):
            leaves.append(parent)
    return leaves


def _released(grad) -> None:
    """The backward closure of a node whose tape a backward() has released."""
    raise BackwardError("backward() through a graph whose tape was released by an "
                        "earlier backward(); run the forward pass again")


def same_dtype(op: str, *arrays: np.ndarray) -> None:
    """Enforce a single precision mode across an op's operands."""
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) > 1:
        raise ShapeError(f"{op}: mixed precision operands {sorted(str(d) for d in dtypes)}")

"""Trajectory variable: a birth time plus a finite state sequence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, _matrix, check_int


@dataclass(frozen=True, eq=False, slots=True)
class Trajectory:
    """Object alive over time steps t .. t + len(states) - 1.

    states has shape (length, n_x); length >= 1.
    """

    t: int
    states: np.ndarray

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if int(self.t) < 1:
            raise ContractError(f"birth time {self.t} must be >= 1")
        if states.shape[0] < 1:
            raise ContractError("trajectory must contain at least one state")
        object.__setattr__(self, "t", int(self.t))
        object.__setattr__(self, "states", states)

    @property
    def length(self) -> int:
        return self.states.shape[0]

    @property
    def last_time(self) -> int:
        return self.t + self.length - 1

    def alive_at(self, k: int) -> bool:
        return self.t <= k <= self.last_time

    def state_at(self, k: int) -> np.ndarray:
        if not self.alive_at(k):
            raise ContractError(f"trajectory not alive at step {k}")
        return self.states[k - self.t]

    def prepend(self, head: np.ndarray) -> "Trajectory":
        """New trajectory born one step earlier with `head` as its first state."""
        tr = object.__new__(Trajectory)
        object.__setattr__(tr, "t", self.t - 1)
        object.__setattr__(tr, "states", np.concatenate((head[None, :], self.states)))
        return tr

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Trajectory)
            and self.t == other.t
            and self.states.shape == other.states.shape
            and bool(np.array_equal(self.states, other.states))
        )

    def __hash__(self) -> int:
        return hash((self.t, self.states.shape, self.states.tobytes()))


def states_at_time(trajectories, k: int) -> list[np.ndarray]:
    """Set of object states at step k: tau^k of a set of trajectories."""
    return [tr.state_at(k) for tr in trajectories if tr.alive_at(k)]


def trajectory_to_jsonable(tr: Trajectory) -> dict:
    return {"t": tr.t, "states": tr.states.tolist()}


def trajectory_from_jsonable(
    data: dict, path: str = "trajectory", dim: int | None = None
) -> Trajectory:
    """Decode a trajectory named `path`: birth time `t` an integer >= 1, finite (n, dim) states.

    A None `dim` matches any state dimension.
    """
    states = _matrix(f"{path}.states", data["states"], (None, dim))
    return Trajectory(check_int("t", data["t"], 1), states)

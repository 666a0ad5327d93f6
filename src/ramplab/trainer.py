"""Multi-agent DQN training on the highway world.

One :class:`Trainer` owns an environment configuration, the online and target
networks, an Adam optimizer, and a replay buffer.  Episodes alternate acting
and learning: uniformly random actions while warming up, per-CAV epsilon-greedy
afterwards, one gradient step per environment step once the warm-up budget is
spent, and a hard target-network copy on a fixed cadence of gradient steps.

All CAVs share one scalar reward; each CAV's TD target bootstraps from the max
of its own next-state Q row, dropping the bootstrap on terminal transitions
and for CAVs that did not survive the step.
"""
from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from ramplab.autodiff import backward, no_grad, squared_error_at
from ramplab.config import EpsilonConfig, ExperimentConfig
from ramplab.network import QNetwork, TrainingError, build_network
from ramplab.optim import Adam, clip_global_grad_norm
from ramplab.replay import Batch, ReplayBuffer
from ramplab.representation import StateSnapshot
from ramplab.rewards import RewardBreakdown, compute_reward
from ramplab.simulation import (
    FILLER_ACTION_INDEX,
    N_ACTIONS,
    ActionCommand,
    Outcome,
    WorldState,
    episode_done,
    reset,
    step,
)

MAX_GRAD_NORM = 10.0


def epsilon(step_count: int, cfg: EpsilonConfig) -> float:
    """Linear decay from start to end over decay_steps, then flat."""
    if step_count >= cfg.decay_steps:
        return cfg.end
    return cfg.start + (cfg.end - cfg.start) * (step_count / cfg.decay_steps)


def explore_draws(n_rows: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Each row's epsilon-greedy draw, row by row: ``rng.random()``, then,
    if it falls below ``eps``, a uniform random action.  Gives the action
    drawn, or -1 where the row acts greedily; nothing is drawn when ``eps``
    is 0."""
    out = np.full(n_rows, -1, dtype=np.int64)
    if eps > 0.0:
        for i in range(n_rows):
            if rng.random() < eps:
                out[i] = int(rng.integers(N_ACTIONS))
    return out


def select_actions(q: np.ndarray, drawn: np.ndarray) -> np.ndarray:
    """Epsilon-greedy pick per Q row from its ``explore_draws`` draw: the
    action drawn, or the greedy one where none was; greedy ties go to the
    lowest index."""
    if not np.isfinite(q).all():
        raise TrainingError("non-finite Q values passed to action selection")
    return np.where(drawn < 0, np.argmax(q, axis=1), drawn)


def td_targets(batch: Batch, target_net: QNetwork, gamma: float) -> np.ndarray:
    """One float64 target per (transition, CAV): r plus the discounted max of
    the target network's next-state row, unless the transition ended the
    episode or the CAV was inactive at s_next.  No stored transition
    reactivates a CAV, so a CAV inactive at s is inactive at s_next too.
    The target network runs on exactly the rows that bootstrap, and not at
    all if none does."""
    live_next = batch.s_next.alive & ~batch.done[:, None]
    y = np.repeat(batch.reward.astype(np.float64)[:, None], live_next.shape[1], axis=1)
    if live_next.any():
        # a terminal row's s_next is unspecified (the replay may hold the
        # next episode's first state there), so none of its CAVs is a token
        with no_grad():
            q_next = target_net.forward_batch(replace(batch.s_next, alive=live_next),
                                              active_only=True).data
        y[live_next] += gamma * q_next.max(axis=1).astype(np.float64)
    return y


def update_target(online: QNetwork, target: QNetwork) -> None:
    target.store.copy_from(online.store)


def train_on_batch(
    batch: Batch,
    net: QNetwork,
    target_net: QNetwork,
    optimizer: Adam,
    gamma: float,
) -> float:
    """One gradient step of MSE TD loss over the batch's active CAVs; the
    online network computes Q rows for those CAVs only."""
    alive = batch.s.alive
    if not alive.any():
        raise TrainingError("batch contains no active CAVs")
    y = td_targets(batch, target_net, gamma)
    net.store.zero_grads()
    q = net.forward_batch(batch.s, active_only=True)
    loss = squared_error_at(q, batch.actions[alive], y[alive])
    if not math.isfinite(loss.item()):
        raise TrainingError("non-finite TD loss")
    backward(loss)
    norm = clip_global_grad_norm(net.store, MAX_GRAD_NORM)
    if not math.isfinite(norm):
        net.store.check_finite_grads()   # names the offending parameter
        raise TrainingError(f"gradient norm {norm} overflows")
    optimizer.step()
    return loss.item()


@dataclass
class EpisodeMetrics:
    episode: int
    seed: int
    variant: str
    return_total: float
    success_rate: float
    collisions: int
    mean_speed: float
    epsilon: float
    wall_ms: float


METRICS_COLUMNS = (
    "episode", "seed", "variant", "return", "success_rate",
    "collisions", "mean_speed", "epsilon", "wall_ms",
)


def metrics_csv_row(m: EpisodeMetrics) -> list[str]:
    return [
        str(m.episode), str(m.seed), m.variant, repr(m.return_total),
        repr(m.success_rate), str(m.collisions), repr(m.mean_speed),
        repr(m.epsilon), f"{m.wall_ms:.3f}",
    ]


def _episode_outcome_stats(world: WorldState) -> tuple[float, int]:
    cav_ids = world.cav_ids()
    if cav_ids:
        correct = sum(
            1 for vid in cav_ids
            if world.vehicle(vid).outcome is Outcome.EXITED_CORRECT_RAMP
        )
        success = correct / len(cav_ids)
    else:
        success = 0.0
    return success, world.collision_count


def greedy_actions(net: QNetwork, snap: StateSnapshot) -> np.ndarray:
    """Argmax action index per CAV row (filler for inactive rows)."""
    return np.where(snap.alive, np.argmax(net.q_values(snap), axis=1), FILLER_ACTION_INDEX)


def rollout(
    world: WorldState,
    cfg: ExperimentConfig,
    net: QNetwork,
    policy: Callable[[StateSnapshot], np.ndarray],
    on_step: Callable[[StateSnapshot, np.ndarray, RewardBreakdown, StateSnapshot, bool],
                      None] | None = None,
) -> tuple[float, float, int, float]:
    """Play ``world`` to the end of its episode, snapshotting what ``net``
    observes.  ``policy(s)`` gives one action index per CAV row (filler on
    inactive rows); ``on_step(s, actions, reward, s_next, done)`` runs after
    each world step; without it the terminal state, which only ``on_step``
    reads, is not snapshotted.  Returns the return, success rate, collisions
    and the mean over steps of the active CAVs' mean speed (0.0 if no step
    had one), in :class:`EpisodeMetrics` field order."""
    snap = net.observe(world, cfg.scenario)
    done = episode_done(world, cfg.scenario)
    return_total = 0.0
    speed_sum = 0.0
    speed_steps = 0
    while not done:
        actions = policy(snap)
        commands = {
            vid: ActionCommand.from_index(int(actions[vid]))
            for vid in range(snap.n_cavs) if snap.alive[vid]
        }
        events = step(world, commands, cfg.scenario)
        reward = compute_reward(world, events, cfg.training.weights, cfg.scenario)
        done = episode_done(world, cfg.scenario)
        return_total += reward.total
        active_now = [world.vehicle(vid) for vid in world.active_cav_ids()]
        if active_now:
            speed_sum += sum(v.v for v in active_now) / len(active_now)
            speed_steps += 1
        snap_next = None if done and on_step is None else net.observe(world, cfg.scenario)
        if on_step is not None:
            on_step(snap, actions, reward, snap_next, done)
        snap = snap_next
    success, collisions = _episode_outcome_stats(world)
    return return_total, success, collisions, speed_sum / speed_steps if speed_steps else 0.0


class Trainer:
    """Owns one seed's training run end to end."""

    def __init__(self, cfg: ExperimentConfig, seed: int):
        cfg.validate()
        self.cfg = cfg
        self.seed = seed
        root = np.random.SeedSequence(seed)
        net_ss, explore_ss, env_ss, buffer_ss = root.spawn(4)
        self.net = build_network(cfg, int(net_ss.generate_state(1)[0]))
        self.target = self.net.clone()
        self.optimizer = Adam(self.net.store, cfg.training.lr)
        self.buffer = ReplayBuffer(cfg.training.buffer_capacity,
                                   int(buffer_ss.generate_state(1)[0]))
        self.explore_rng = np.random.default_rng(explore_ss)
        self.env_seed_rng = np.random.default_rng(env_ss)
        self.env_steps = 0
        self.grad_steps = 0
        self.episodes_run = 0

    def current_epsilon(self) -> float:
        t = self.cfg.training
        if self.env_steps < t.warmup_steps:
            return 1.0
        return epsilon(self.env_steps - t.warmup_steps, t.epsilon)

    def _act(self, snap: StateSnapshot) -> np.ndarray:
        """Uniform random actions while warming up, else epsilon-greedy."""
        actions = np.full(snap.n_cavs, FILLER_ACTION_INDEX, dtype=np.int64)
        alive = np.flatnonzero(snap.alive)
        if self.env_steps < self.cfg.training.warmup_steps:
            # one draw per active row: a single sized draw gives other numbers
            for row in alive:
                actions[row] = self.explore_rng.integers(N_ACTIONS)
        else:
            # the draws come first, so the network runs only if an active
            # CAV acts greedily
            chosen = explore_draws(snap.n_cavs, self.current_epsilon(), self.explore_rng)
            if (chosen[alive] < 0).any():
                chosen = select_actions(self.net.q_values(snap), chosen)
            actions[alive] = chosen[alive]
        return actions

    def _learn(self, s, actions, reward, s_next, done) -> None:
        """Store the transition, then take a gradient step once warmed up."""
        training = self.cfg.training
        self.buffer.add(s, actions, reward.total, s_next, done)
        self.env_steps += 1
        if self.env_steps >= training.warmup_steps and len(self.buffer) >= training.batch:
            train_on_batch(self.buffer.sample(training.batch),
                           self.net, self.target, self.optimizer, training.gamma)
            self.grad_steps += 1
            if self.grad_steps % training.target_update_interval == 0:
                update_target(self.net, self.target)

    def run_episode(self) -> EpisodeMetrics:
        """Play one training episode: store transitions, learn, and advance
        the exploration schedule."""
        t0 = time.perf_counter()
        world = reset(self.cfg.scenario, int(self.env_seed_rng.integers(2 ** 63)))
        eps_reported = self.current_epsilon()
        outcome = rollout(world, self.cfg, self.net, self._act, self._learn)
        self.episodes_run += 1
        return EpisodeMetrics(self.episodes_run, self.seed, self.net.variant, *outcome,
                              epsilon=eps_reported, wall_ms=(time.perf_counter() - t0) * 1e3)

    def train(self, on_episode=None, on_checkpoint=None) -> list[EpisodeMetrics]:
        """Run the configured number of episodes; optional callbacks receive
        each episode's metrics and periodic checkpoint requests."""
        out = []
        interval = self.cfg.training.checkpoint_interval
        for _ in range(self.cfg.training.episodes):
            metrics = self.run_episode()
            out.append(metrics)
            if on_episode is not None:
                on_episode(metrics)
            if on_checkpoint is not None and self.episodes_run % interval == 0:
                on_checkpoint(self.net, f"ep_{self.episodes_run:06d}")
        if on_checkpoint is not None:
            on_checkpoint(self.net, "final")
        return out


def evaluate_policy(
    net: QNetwork,
    cfg: ExperimentConfig,
    n_episodes: int,
    seed: int,
) -> list[EpisodeMetrics]:
    """Greedy rollouts of a fixed policy; episode seeds derive from ``seed``."""
    env_seed_rng = np.random.default_rng(np.random.SeedSequence(seed))
    policy = functools.partial(greedy_actions, net)
    out = []
    for ep in range(n_episodes):
        t0 = time.perf_counter()
        world = reset(cfg.scenario, int(env_seed_rng.integers(2 ** 63)))
        outcome = rollout(world, cfg, net, policy)
        out.append(EpisodeMetrics(ep, seed, net.variant, *outcome,
                                  epsilon=0.0, wall_ms=(time.perf_counter() - t0) * 1e3))
    return out

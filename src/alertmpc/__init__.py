"""Drowsiness-minimizing setpoint control for office temperature and lighting.

The package predicts worker drowsiness from the indoor environment,
searches the setpoint box for the schedule with the lowest mean predicted
drowsiness subject to a comfort constraint, and ships the surrounding
tooling: model identification from telemetry, a reproducible closed-loop
simulator, and a CLI.

Import from the modules: domain (configuration and state), models
(prediction), optimizer (differential evolution), mpc (solve and
Controller), identify (model fits), sim (the closed loop), formats (the
files), daemon (the streaming loop) and cli.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

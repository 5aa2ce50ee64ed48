"""RIPS: a typed rules engine for intrusion prevention over
publish/subscribe computation graphs.

The package provides the rules-language frontend (tokenizer, parser, static
checker), a tree-walking interpreter and a behavior-equivalent Python
transpiler, the YAML-over-Unix-socket wire protocol, and a monitor
simulator for replaying attack scenarios.

The package re-exports nothing: import the module that holds a name. A
generated program then loads only the runtime (``support``, ``predicates``
and what they import), not the compiler.
"""

__version__ = "0.1.0"

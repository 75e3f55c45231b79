"""The unified tool-attach API: one entry point for every mechanism.

``attach(machine, process, tool="lazypoline", interposer=..., **opts)``
is the only way to attach a tool.  Tools are looked up in a registry
keyed by ``tool_name``; entries are imported lazily so importing
:mod:`repro.interpose` stays cheap and no tool module is loaded until it
is actually attached.

Mechanism-specific options pass through ``**opts`` (e.g. ``mode="bytescan"``
for zpoline, ``config=LazypolineConfig(...)`` for lazypoline).  Two tools
have adapter quirks mirroring their real-world APIs:

* ``seccomp_bpf`` takes **no interposer** — the filter runs in kernel space
  and can only allow/deny (Table I); passing one raises ``ValueError``.
  Convenience opts: ``program=`` (a raw cBPF program) or ``denylist=`` (a
  list of syscall numbers to fail with ``errno_value=``).
* ``seccomp_unotify`` accepts ``sysnos=[...]`` to notify only for selected
  syscalls.
"""

from __future__ import annotations

import warnings
from importlib import import_module
from typing import Any, Callable

#: tool name -> (module, class name); resolved lazily on first attach.
_LAZY: dict[str, tuple[str, str]] = {
    "lazypoline": ("repro.interpose.lazypoline", "Lazypoline"),
    "zpoline": ("repro.interpose.zpoline", "Zpoline"),
    "sud": ("repro.interpose.sud_tool", "SudTool"),
    "seccomp_user": ("repro.interpose.seccomp_user_tool", "SeccompUserTool"),
    "seccomp_bpf": ("repro.interpose.seccomp_bpf_tool", "SeccompBpfTool"),
    "seccomp_unotify": ("repro.interpose.usernotif_tool", "UserNotifTool"),
    "ptrace": ("repro.interpose.ptrace_tool", "PtraceTool"),
    "preload": ("repro.interpose.preload_tool", "PreloadTool"),
}

#: tool name -> attach callable; populated lazily and by register_tool().
_REGISTRY: dict[str, Callable[..., Any]] = {}

#: tools whose ``_install`` understands ``degrade_policy=`` (see
#: :mod:`repro.interpose.lazypoline.degrade`).  Extended via
#: ``register_tool(..., degrade_aware=True)``.
_DEGRADE_AWARE: set[str] = {"lazypoline"}


def _attach_seccomp_bpf(machine, process, interposer=None, **opts):
    if interposer is not None:
        raise ValueError(
            "seccomp_bpf cannot run an interposer: cBPF filters execute in "
            "kernel space and only return allow/errno/kill/trap verdicts "
            "(Table I). Use tool='seccomp_unotify' or a SIGSYS-based tool "
            "for user-space interposition."
        )
    from repro.interpose.seccomp_bpf_tool import SeccompBpfTool

    denylist = opts.pop("denylist", None)
    if denylist is not None:
        return SeccompBpfTool._install_denylist(
            machine, process, denylist, **opts
        )
    return SeccompBpfTool._install(machine, process, **opts)


def _attach_seccomp_unotify(machine, process, interposer=None, **opts):
    from repro.interpose.usernotif_tool import UserNotifTool

    sysnos = opts.pop("sysnos", None)
    if sysnos is not None:
        if opts:
            raise TypeError(f"unexpected options with sysnos: {sorted(opts)}")
        return UserNotifTool._install_for_syscalls(
            machine, process, sysnos, interposer
        )
    return UserNotifTool._install(machine, process, interposer, **opts)


_ADAPTERS: dict[str, Callable[..., Any]] = {
    "seccomp_bpf": _attach_seccomp_bpf,
    "seccomp_unotify": _attach_seccomp_unotify,
}


def register_tool(
    name: str, attach_fn: Callable[..., Any], *, degrade_aware: bool = False
) -> None:
    """Register (or replace) an attachable tool.

    ``attach_fn(machine, process, interposer=None, **opts)`` must return the
    tool object.  Third-party tool classes typically pass ``cls._install``.
    ``degrade_aware`` declares that the tool accepts ``degrade_policy=``
    (see :mod:`repro.interpose.lazypoline.degrade`); for other tools the
    option warns and is dropped instead of breaking the attach.
    """
    _REGISTRY[name] = attach_fn
    if degrade_aware:
        _DEGRADE_AWARE.add(name)
    else:
        _DEGRADE_AWARE.discard(name)


def available_tools() -> list[str]:
    """Names accepted by :func:`attach`, sorted."""
    return sorted(set(_LAZY) | set(_REGISTRY))


def _resolve(name: str) -> Callable[..., Any]:
    fn = _REGISTRY.get(name)
    if fn is not None:
        return fn
    adapter = _ADAPTERS.get(name)
    if adapter is not None:
        _REGISTRY[name] = adapter
        return adapter
    try:
        module, cls_name = _LAZY[name]
    except KeyError:
        raise ValueError(
            f"unknown interposition tool {name!r}; "
            f"available: {', '.join(available_tools())}"
        ) from None
    cls = getattr(import_module(module), cls_name)
    fn = cls._install
    _REGISTRY[name] = fn
    return fn


def attach(
    machine,
    process,
    tool: str = "lazypoline",
    *,
    interposer=None,
    degrade_policy=None,
    **opts,
):
    """Attach an interposition tool to ``process`` on ``machine``.

    Returns the tool object.
    ``interposer`` defaults to the passthrough interposer for tools that
    take one; mechanism-specific options go in ``**opts``.

    ``degrade_policy`` configures graceful degradation for tools that
    support it (currently lazypoline): a
    :class:`~repro.interpose.lazypoline.degrade.DegradePolicy`, a mode
    name/:class:`Mode` giving just the floor, or a dict of policy fields.
    Tools without degradation support warn and ignore it — existing
    callers keep working unchanged.
    """
    fn = _resolve(tool)
    if degrade_policy is not None:
        if tool in _DEGRADE_AWARE:
            opts["degrade_policy"] = degrade_policy
        else:
            warnings.warn(
                f"tool {tool!r} has no graceful-degradation support; "
                f"degrade_policy is ignored",
                RuntimeWarning,
                stacklevel=2,
            )
    if interposer is None:
        return fn(machine, process, **opts)
    return fn(machine, process, interposer, **opts)

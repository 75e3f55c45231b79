"""lazypoline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.registers import XComponent


@dataclass
class LazypolineConfig:
    """Install-time options.

    ``preserve_xstate`` mirrors the paper's configurable option (§IV-B):
    which extended-state components the fast path saves/restores around the
    interposer.  The default preserves everything; users who know their
    interposer never clobbers vector state can trade compatibility for
    speed (Table III tells them when that is safe).
    """

    #: Extended-state components preserved by the fast path.
    preserve_xstate: XComponent = field(default_factory=XComponent.all)

    #: Arm SUD (the slow path).  Disabled only for the Fig. 4 breakdown
    #: experiment, which measures the pure fast path.
    enable_sud: bool = True

    #: Rewrite syscall sites on first trap.  Disabling this degrades
    #: lazypoline to a plain (selector-only) SUD interposer.
    rewrite: bool = True

    #: Wrap application signal handlers (Fig. 3 machinery).
    wrap_signals: bool = True

    #: Re-install lazypoline automatically after a successful execve.
    reinstall_on_exec: bool = False

    #: §VI security extension: isolate the per-task %gs region (selector
    #: byte, sigreturn/xstate stacks) behind a memory protection key.
    #: Application code runs with the key write-disabled, so a malicious
    #: overwrite of the selector faults instead of silencing interposition;
    #: kernel-side selector reads (and the interposer itself) still work.
    protect_gs_with_pkey: bool = False

    @property
    def preserves_any_xstate(self) -> bool:
        return self.preserve_xstate.value != 0

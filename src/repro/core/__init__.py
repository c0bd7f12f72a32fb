"""The Viracocha framework core (layers 1 and 2) and the session facade.

Exports resolve on first access, so importing one core module (the
channels, say) does not pull in the session and everything behind it.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".costs": ("CostModel", "DEFAULT_COSTS"),
    ".messages": (
        "CommandComplete",
        "CommandRequest",
        "HEADER_BYTES",
        "ProgressUpdate",
        "ResultPacket",
        "WorkAssignment",
        "WorkerDone",
    ),
    ".channels": ("InstantChannel", "Mailbox", "SimMPIChannel", "SimTCPChannel"),
    ".commands": (
        "Command",
        "CommandContext",
        "CommandRegistry",
        "Compute",
        "Emit",
        "Load",
        "Prefetch",
        "lpt_order",
        "plan_block_assignments",
        "plan_block_tasks",
        "split_balanced",
        "split_round_robin",
    ),
    ".worker": ("Worker", "WorkerShare"),
    ".scheduler": ("RunRecord", "Scheduler"),
    ".session": ("CommandResult", "ViracochaSession"),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]

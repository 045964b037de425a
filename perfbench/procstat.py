"""Reading a process's peak resident set from ``/proc``."""


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")

"""Golden NEGATIVE example for the schema rules.

Emits an event kind the registry doesn't know (S001), an undeclared
event field (S005), and a kind no tool can statically resolve (S004).
"""


def instrument(tr, cycle, tid, kind_var):
    if tr.enabled:
        tr.emit(cycle, tid, "teleport", seq=1)          # S001
        tr.emit(cycle, tid, "spill", addr=4, speed=9)   # S005
        tr.emit(cycle, tid, kind_var, seq=2)            # S004

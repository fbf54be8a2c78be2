(** Amnesiac flooding, directed: a vertex forwards every token it receives
    to {e all} of its out-ports and keeps no state at all ([state_bits = 0]).

    This is the zero-memory extreme of the broadcast memory hierarchy
    studied for anonymous dynamic networks (Parzych–Daymude's lower bounds;
    Austin, Hussak & Trehan's "easy to break, hard to mend" analysis of
    amnesiac flooding under edge insertion).  On a DAG every token follows a
    finite path, so the run quiesces after one delivery per [s]-path; the
    moment the network contains a directed cycle reachable from [s], tokens
    circulate forever and the engine hits its step limit.

    That fragility is the point: a single {!Runtime.Faults} churn [Add]
    event that closes a back edge mid-run converts a quiescing execution
    into a non-terminating one — the witness class the churn-aware
    {!Runtime.Chaos} search ([Livelock] kind) is asked to find and
    replay. *)

include Runtime.Protocol_intf.CHECKABLE

(** Synchronous execution of an anonymous protocol.

    Section 2 notes the results "can be easily extended ... to the case that
    the communication throughout the network is synchronous"; this engine
    realizes that model: computation proceeds in global rounds, every
    message sent in round [r] is delivered at round [r+1], and the round
    count is the protocol's {e time complexity} — the extra quality measure
    the synchronous model affords (Section 2, "Quality").

    All bit accounting matches {!Engine}. *)

type 'state report = {
  base : 'state Engine.report;
  rounds : int;  (** Rounds until termination / quiescence. *)
}

module Make (P : Protocol_intf.PROTOCOL) : sig
  val run :
    ?payload_bits:int ->
    ?round_limit:int ->
    ?on_deliver:(Engine.event -> P.message -> unit) ->
    Digraph.t ->
    P.state report
  (** Defaults: [payload_bits = 0], [round_limit = 100_000].  Raises
      [Invalid_argument] if [payload_bits < 0]. *)
end

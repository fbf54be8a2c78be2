module F = Digraph.Families

type case = {
  c_protocol : string;
  c_family : string;
  c_edges : int;
  c_graph : Digraph.t;
  c_explore :
    ?max_states:int ->
    ?max_depth:int ->
    ?walks:int ->
    ?obs:Obs.t ->
    unit ->
    Runtime.Explore.result;
  c_replay : int list -> Runtime.Explore.replay;
}

let make (module P : Runtime.Protocol_intf.CHECKABLE) ~family g =
  let module X = Runtime.Explore.Make (P) in
  {
    c_protocol = P.name;
    c_family = family;
    c_edges = Digraph.n_edges g;
    c_graph = g;
    c_explore =
      (fun ?max_states ?max_depth ?walks ?obs () ->
        X.explore ?max_states ?max_depth ?walks ?obs g);
    c_replay = X.replay g;
  }

(* The graph classes a protocol's correctness theorem quantifies over.
   Every family here is deterministic, so the suite is reproducible. *)
let grounded_trees () =
  [
    ("path:2", F.path 2);
    ("path:3", F.path 3);
    ("comb:3", F.comb 3);
    ("comb:4", F.comb 4);
    ("full-tree:1x2", F.full_tree ~height:1 ~degree:2);
    ("full-tree:1x3", F.full_tree ~height:1 ~degree:3);
    ("pruned-tree:2x2", F.pruned_tree ~height:2 ~degree:2);
  ]

let dags () =
  grounded_trees ()
  @ [ ("diamond", F.diamond ()); ("grid:2x2", F.grid_dag ~rows:2 ~cols:2) ]

let digraphs () =
  dags ()
  @ [
      ("cycle:3", F.cycle_with_exit ~k:3);
      ("cycle:4", F.cycle_with_exit ~k:4);
      ("figure-eight", F.figure_eight ());
    ]

let shortname = function
  | "scalar-broadcast/pow2-dyadic" -> "tree"
  | "scalar-broadcast/even-rational" -> "tree-naive"
  | "dag-broadcast/pow2-dyadic" -> "dag"
  | "general-broadcast" -> "general"
  | n -> n

(* Instantiated here (rather than referencing the {!Anonet} facade, which
   sits above this module in the dependency order). *)
module Tree_impl = Scalar_broadcast.Make (Commodity.Pow2_dyadic)
module Tree_naive_impl = Scalar_broadcast.Make (Commodity.Even_rational)
module Dag_impl = Dag_broadcast.Make (Commodity.Pow2_dyadic)

let protocols () :
    (string
    * [ `Trees | `Dags | `Digraphs ]
    * (module Runtime.Protocol_intf.CHECKABLE))
    list =
  [
    ("tree", `Trees, (module Tree_impl));
    ("tree-naive", `Trees, (module Tree_naive_impl));
    ("dag", `Dags, (module Dag_impl));
    ("general", `Digraphs, (module General_broadcast));
    ("counting", `Dags, (module Counting));
    ("labeling", `Digraphs, (module Labeling));
    ("mapping", `Digraphs, (module Mapping));
  ]

let cases ?(max_edges = 8) () =
  let on families (p : (module Runtime.Protocol_intf.CHECKABLE)) =
    List.filter_map
      (fun (family, g) ->
        if Digraph.n_edges g <= max_edges then Some (make p ~family g) else None)
      (families ())
  in
  let rename c = { c with c_protocol = shortname c.c_protocol } in
  List.map rename
    (on grounded_trees (module Tree_impl)
    @ on grounded_trees (module Tree_naive_impl)
    @ on dags (module Dag_impl)
    @ on dags (module Counting)
    @ on digraphs (module General_broadcast)
    @ on digraphs (module Labeling)
    @ on digraphs (module Mapping))

(* {1 Negative control} *)

(* A deliberately broken commodity: [split] keeps the whole value on the
   first out-edge instead of dividing it, so every other subtree is starved
   while the terminal still accumulates the full unit.  Conservation holds —
   nothing is lost — which makes this a pure {e soundness} bug: the protocol
   halts claiming success with vertices unvisited.  Exactly what the
   checker's broadcast-soundness invariant must catch. *)
module Sabotaged_commodity = struct
  include Commodity.Pow2_dyadic

  let name = "pow2-sabotaged"
  let split x _d = [ x ]
end

module Sabotaged = Scalar_broadcast.Make (Sabotaged_commodity)

let sabotaged () =
  make (module Sabotaged) ~family:"full-tree:1x2" (F.full_tree ~height:1 ~degree:2)

(* {1 Chaos controls} *)

(* The two ends of the crash-resilience spectrum, packaged for tests, CI
   smoke and [bench -- chaos].  The negative control is bare flooding under
   crash-restart amnesia: an amnesiac vertex forgets it was reached, its
   neighbors never resend, and the chaos search must find (and shrink to
   <= 4 atoms) a starvation witness.  The supervised control is the
   full stack — Redundant(3) + checkpointing supervisor — which the same
   search must never catch falsely terminating. *)

let chaos_negative ?(budget = 60) ?(seed = 11) () =
  Runtime.Chaos.run
    (Runtime.Chaos.config ~budget ~seed
       ~recoveries:[ Runtime.Vfaults.Amnesia ] ~p_edge:0.0 ())
    ~runners:[ Resilient.chaos_runner ~k:1 (module Flood) ]
    ~graphs:(Resilient.chaos_graphs ())

let chaos_supervised ?(budget = 60) ?(seed = 11) () =
  Runtime.Chaos.run
    (Runtime.Chaos.config ~budget ~seed
       ~supervisor:Runtime.Supervisor.default ())
    ~runners:[ Resilient.chaos_runner ~k:3 (module General_broadcast) ]
    ~graphs:(Resilient.chaos_graphs ())

(* {1 Churn controls} *)

let chaos_churn ?(budget = 40) ?(seed = 11) () =
  Runtime.Chaos.run
    (Runtime.Chaos.config ~budget ~seed ~p_churn:0.5 ~churn_t:4
       ~supervisor:Runtime.Supervisor.default ())
    ~runners:[ Resilient.chaos_runner ~k:3 (module General_broadcast) ]
    ~graphs:(Resilient.chaos_graphs ())

(* The footprint whose back edges close cycles; every run of amnesiac
   flooding on it — with the cycle edge present from the start, or churned
   in mid-run by an [Add] atom — circulates tokens forever. *)
let dynamic_case ~n =
  {
    Runtime.Chaos.g_name = Printf.sprintf "random-dynamic-%d" n;
    build =
      (fun ~seed ->
        F.random_dynamic (Prng.create seed) ~n ~extra_edges:6 ~back_edges:2
          ~t_edge_prob:0.3);
  }

let chaos_amnesiac ?(budget = 12) ?(seed = 11) () =
  Runtime.Chaos.run
    (Runtime.Chaos.config ~budget ~seed ~p_churn:1.0 ~max_faults:1
       ~step_limit:10_000 ())
    ~runners:[ Resilient.chaos_runner ~k:1 (module Amnesiac_flood) ]
    ~graphs:[ dynamic_case ~n:12 ]

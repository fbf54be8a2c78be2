(** Directed anonymous networks: the graph model of Section 2 plus the
    paper's graph families and a Graphviz exporter.

    This module re-exports {!Graph} wholesale, so [Digraph.make],
    [Digraph.out_degree], ... are the primary API; the families live under
    {!Digraph.Families}. *)

include Graph

module Families = Families
module Dot = Dot

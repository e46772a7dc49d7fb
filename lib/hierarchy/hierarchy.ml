(* Library root. *)
module Topology = Topology
module Hier_cost = Hier_cost
module Assignment = Assignment
module Two_step = Two_step
module Hier_refine = Hier_refine
module Steiner = Steiner

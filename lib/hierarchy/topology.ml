(* Topologies live in [partition], below [solvers], so that the exact
   search can price the Definition 7.1 cost; the hierarchy modules keep
   naming them [Topology]. *)
include Partition.Topology

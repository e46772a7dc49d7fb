(* ANALYSIS_DEBUG-gated self-audits: thin wrappers over
   Analysis_core.Audit_partition that the solver entry points thread their
   results through. *)

module Debug = Analysis_core.Debug
module Audit_partition = Analysis_core.Audit_partition

let checked ?eps ?variant ?claimed ?bound ?preserved_weights ?constraints
    ?constraints_eps hg part =
  Debug.audit (fun () ->
      Audit_partition.audit ?eps ?variant ?claimed ?bound ?preserved_weights
        ?constraints ?constraints_eps hg part);
  part

let checked_cost ~metric hg part cost =
  Debug.audit (fun () ->
      Audit_partition.audit
        ~claimed:{ Audit_partition.metric; cost } hg part);
  cost

let entry_weights hg part =
  if Debug.enabled () then Some (Partition.part_weights hg part) else None

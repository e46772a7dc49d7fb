(* DOM09: the only effect of a hot-path function is an unanalyzed
   external call, so the effect analysis classifies it unknown. *)

let solve name = Sys.getenv name

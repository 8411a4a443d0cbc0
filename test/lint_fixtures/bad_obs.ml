(* Fixture: observability violations.  A [drop_reason] with no counter
   mapping. *)

type drop_reason = Too_long | Bad_magic

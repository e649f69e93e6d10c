(** SRP solutions: labelings [L : V -> A⊥] and the forwarding relation they
    induce (paper §3.1, Figure 4). *)

type 'a t = { srp : 'a Srp.t; labels : 'a option array }

val label : 'a t -> int -> 'a option

val equal_labels : 'a t -> 'a t -> bool
(** Pointwise equality of the two labelings under the SRP's [attr_equal]
    (never polymorphic [=]: attributes may have non-structural equality, or
    contain closures that [=] refuses to compare). *)

val choices : 'a t -> int -> ((int * int) * 'a) list
(** [choices s u] — the paper's [choices_L(u)]: pairs of an edge [(u, v)]
    and the attribute [trans((u,v), L(v))], for attributes that are not
    dropped. The destination's initial attribute is {e not} a choice. *)

val is_stable : 'a t -> bool
(** Every node is locally stable: the destination is labeled [a_d]; a node
    with no choices is labeled [⊥]; any other node's label is one of its
    choices and no choice is strictly preferred to it. *)

val stability_violations : 'a t -> (int * string) list
(** Human-readable reasons nodes are unstable (for tests and debugging). *)

val fwd : 'a t -> int -> (int * int) list
(** [fwd s u] — the paper's [fwd_L(u)]: edges whose attribute is as good
    ([≈]) as the chosen label. Empty for the destination and for
    unreachable nodes. *)

val forwarding_paths : 'a t -> src:int -> max_len:int -> int list list
(** All forwarding paths from [src] following [fwd] edges until the
    destination, a node with no forwarding edge (black hole), a repeated
    node (loop — the path ends with the repeated node appearing twice), or
    [max_len] hops. *)

val reaches : 'a t -> int -> bool
(** [reaches s u]: every forwarding path from [u] ends at the destination
    (and there is at least one). *)

val pp : Format.formatter -> 'a t -> unit

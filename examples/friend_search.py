#!/usr/bin/env python3
"""Secure social search, end to end (Section V / Table I rows 10-13).

Alice wants to find football fans to befriend.  The pipeline covers all
four secure-search concerns from the paper:

1. content privacy       — the shared index stores blinded terms;
2. privacy of searcher   — the query travels through Safebook-style
                            trusted-friend rings, so the candidates never
                            learn who searched;
3. owner privacy         — owners publish resource *handlers* (labels, not
                            data); dereferencing needs the owner's approval
                            or a ZKP credential check by the owner;
4. trusted search result — candidates are ranked by trust chains.

Run:  python examples/friend_search.py
"""

import random

from repro.exceptions import AccessDeniedError
from repro.search import (AccessGuard, DataOwner, HandlerDirectory,
                          Matryoshka, PseudonymousSearcher, ResourceOwner,
                          SearchIndex, friends_only_policy, rank_results)
from repro.workloads import attach_trust, social_graph

rng = random.Random(123)


def main() -> None:
    graph = attach_trust(social_graph(200, kind="ba", seed=11), seed=12)
    users = sorted(graph.nodes)

    print("== 1. building the blinded index ==")
    index = SearchIndex(blinding_secret=b"circle-shared-secret-32-bytes!!!")
    football_fans = [u for i, u in enumerate(users) if i % 5 == 0]
    for user in users:
        interest = "football weekends" if user in football_fans \
            else "chess and books"
        index.add_document(user, interest)
    print(f"  indexed {len(users)} profiles; host-visible vocabulary "
          f"leaked: {index.vocabulary_leaked()}")

    print("\n== 2. anonymous query via trusted-friend rings ==")
    searcher = "user7"
    hits = index.search("football")
    print(f"  query 'football' -> {len(hits)} candidates")
    # route the query so the first candidate can't identify the searcher
    target = hits[0]
    shells = Matryoshka(graph, target, depth=3)
    request = shells.route_request(searcher, rng)
    knowledge = shells.observer_knowledge(request)
    print(f"  query routed through {request.hops} hops; "
          f"{target} sees requester = "
          f"{knowledge[target]['knows_requester']}")
    print(f"  requester anonymity set at {target}: "
          f"{shells.requester_anonymity_set(len(users))} of {len(users)}")

    print("\n== 3. trust-ranked results ==")
    ranked = rank_results(graph, searcher, hits[:12], max_depth=3)
    for result in ranked[:5]:
        chain = " -> ".join(result.chain) if result.chain else "(no chain)"
        print(f"  {result.user:8s} score={result.score:.3f} "
              f"trust={result.trust:.3f} via {chain}")

    print("\n== 4. the best match publishes handlers, not data ==")
    best = ranked[0].user
    owner_data = DataOwner(best, policy=friends_only_policy({searcher}))
    owner_data.register("birthday", b"26 October")
    owner_data.register("phone", b"+90 555 0100", searchable=False)
    directory = HandlerDirectory()
    directory.publish(owner_data)
    print(f"  the directory host learns only labels: "
          f"{directory.directory_view()}")
    handler = directory.search("birthday")[0]
    birthday = owner_data.dereference(searcher, handler.label)
    print(f"  {searcher}, on {best}'s approved list, dereferences "
          f"{handler.label!r} -> {birthday.decode()!r}")
    try:
        owner_data.dereference("user199", handler.label)
    except AccessDeniedError:
        print(f"  user199 asks for it too -> {best} declines")

    print("\n== 5. dereferencing a result through the owner's ZKP guard ==")
    owner = ResourceOwner(best, rng=rng)
    owner.publish(f"{best}/profile", b"full profile: football, Sundays")
    guard = AccessGuard(owner)
    alice = PseudonymousSearcher(searcher, rng=rng)
    # out-of-band: the owner grants alice a credential (they matched!)
    alice.receive_credential(owner.issue_credential(f"{best}/profile"))
    content = alice.access(guard, f"{best}/profile")
    print(f"  dereferenced handler -> {content.decode()!r}")
    print(f"  guard's log shows only pseudonyms: {guard.grant_log}")

    stranger = PseudonymousSearcher("user199", rng=rng)
    try:
        stranger.access(guard, f"{best}/profile")
    except Exception as exc:
        print(f"  uncredentialed stranger -> {type(exc).__name__}")


if __name__ == "__main__":
    main()

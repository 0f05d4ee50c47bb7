"""Synthetic workload generators (graphs, activity traces, trust weights).

Substitutes for the proprietary OSN data the surveyed systems were
evaluated on; see DESIGN.md's substitution table.
"""

from repro.workloads.graphs import attach_trust, social_graph
from repro.workloads.traces import (PostEvent, generate_posts,
                                    generate_text, zipf_choice)

__all__ = [
    "PostEvent", "attach_trust", "generate_posts", "generate_text",
    "social_graph", "zipf_choice",
]

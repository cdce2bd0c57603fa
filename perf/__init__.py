"""The repo's benchmark: six workloads, seven end-to-end metrics, and a
traced pass that says where a millisecond goes.  See ``perf/README.md``."""

"""In-memory spans around the benchmark's calls into each layer.

A span has a name, start, end, parent and run id; times are seconds on
the perf_counter clock. Spans stay in memory and are written out once, at
the end of a traced run.
"""

import json


class Spans:
    def __init__(self):
        self.items = []

    def open(self, name, start, parent=None, run=""):
        self.items.append({"id": len(self.items), "name": name,
                           "start": start, "end": None, "parent": parent,
                           "run": run})
        return len(self.items) - 1

    def close(self, span_id, end):
        self.items[span_id]["end"] = end

    def add(self, name, start, end, parent=None, run=""):
        span_id = self.open(name, start, parent, run)
        self.close(span_id, end)
        return span_id

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"schema": "perfbench.spans", "spans": self.items}, f)
            f.write("\n")

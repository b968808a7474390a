"""The paper's primary contribution: cost model, load analysis, design rules."""

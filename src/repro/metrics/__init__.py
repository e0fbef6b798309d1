"""Evaluation metrics: the paper's relative deviation (§IV), the Fig. 6/7
stability pair, supporting fairness indices, and fault-recovery measures."""

package chatbot

import (
	"encoding/json"
	"fmt"
)

// The encoding/json decoders and encoders the answer codec in parse.go
// replaced, kept verbatim as the reference FuzzParseAnswers and
// FuzzEncodeAnswers compare the codec against: the codec must accept and
// reject what these do, decode the same values, and write the same bytes.

// refParseLineLabels decodes `[[12, ["types"]], [15, ["purposes","handling"]]]`.
func refParseLineLabels(s string) ([]LineLabels, error) {
	var raw [][]json.RawMessage
	if err := json.Unmarshal([]byte(StripJSON(s)), &raw); err != nil {
		return nil, fmt.Errorf("chatbot: parsing line labels: %w", err)
	}
	out := make([]LineLabels, 0, len(raw))
	for i, tup := range raw {
		if len(tup) != 2 {
			return nil, fmt.Errorf("chatbot: line-label tuple %d has %d elements", i, len(tup))
		}
		var ll LineLabels
		if err := json.Unmarshal(tup[0], &ll.Line); err != nil {
			return nil, fmt.Errorf("chatbot: line-label tuple %d line: %w", i, err)
		}
		if err := json.Unmarshal(tup[1], &ll.Labels); err != nil {
			// Tolerate a bare string label.
			var one string
			if err2 := json.Unmarshal(tup[1], &one); err2 != nil {
				return nil, fmt.Errorf("chatbot: line-label tuple %d labels: %w", i, err)
			}
			ll.Labels = []string{one}
		}
		out = append(out, ll)
	}
	return out, nil
}

// refParseExtractions decodes `[[4, "email address"], [4, "browsing history"]]`.
func refParseExtractions(s string) ([]Extraction, error) {
	var raw [][]json.RawMessage
	if err := json.Unmarshal([]byte(StripJSON(s)), &raw); err != nil {
		return nil, fmt.Errorf("chatbot: parsing extractions: %w", err)
	}
	out := make([]Extraction, 0, len(raw))
	for i, tup := range raw {
		if len(tup) != 2 {
			return nil, fmt.Errorf("chatbot: extraction tuple %d has %d elements", i, len(tup))
		}
		var e Extraction
		if err := json.Unmarshal(tup[0], &e.Line); err != nil {
			return nil, fmt.Errorf("chatbot: extraction tuple %d line: %w", i, err)
		}
		if err := json.Unmarshal(tup[1], &e.Text); err != nil {
			return nil, fmt.Errorf("chatbot: extraction tuple %d text: %w", i, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// refParseNormalizations decodes
// `[["mailing address", "Physical profile", "Contact info", "postal address"]]`.
func refParseNormalizations(s string) ([]Normalization, error) {
	var raw [][]string
	if err := json.Unmarshal([]byte(StripJSON(s)), &raw); err != nil {
		return nil, fmt.Errorf("chatbot: parsing normalizations: %w", err)
	}
	out := make([]Normalization, 0, len(raw))
	for i, tup := range raw {
		if len(tup) != 4 {
			return nil, fmt.Errorf("chatbot: normalization tuple %d has %d elements", i, len(tup))
		}
		out = append(out, Normalization{
			Surface: tup[0], Meta: tup[1], Category: tup[2], Descriptor: tup[3],
		})
	}
	return out, nil
}

// refParseLabeledMentions decodes
// `[[3, "Data retention", "Stated", "six (6) years"]]`.
func refParseLabeledMentions(s string) ([]LabeledMention, error) {
	var raw [][]json.RawMessage
	if err := json.Unmarshal([]byte(StripJSON(s)), &raw); err != nil {
		return nil, fmt.Errorf("chatbot: parsing labeled mentions: %w", err)
	}
	out := make([]LabeledMention, 0, len(raw))
	for i, tup := range raw {
		if len(tup) != 4 {
			return nil, fmt.Errorf("chatbot: labeled-mention tuple %d has %d elements", i, len(tup))
		}
		var m LabeledMention
		if err := json.Unmarshal(tup[0], &m.Line); err != nil {
			return nil, fmt.Errorf("chatbot: labeled-mention tuple %d line: %w", i, err)
		}
		if err := json.Unmarshal(tup[1], &m.Group); err != nil {
			return nil, fmt.Errorf("chatbot: labeled-mention tuple %d group: %w", i, err)
		}
		if err := json.Unmarshal(tup[2], &m.Label); err != nil {
			return nil, fmt.Errorf("chatbot: labeled-mention tuple %d label: %w", i, err)
		}
		if err := json.Unmarshal(tup[3], &m.Text); err != nil {
			return nil, fmt.Errorf("chatbot: labeled-mention tuple %d text: %w", i, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// The reference encoders.

// refEncodeLineLabels renders line labels in the task's JSON tuple format.
func refEncodeLineLabels(lls []LineLabels) string {
	parts := make([]any, len(lls))
	for i, ll := range lls {
		labels := ll.Labels
		if labels == nil {
			labels = []string{}
		}
		parts[i] = []any{ll.Line, labels}
	}
	return mustJSON(parts)
}

// refEncodeExtractions renders extractions in the task's JSON tuple format.
func refEncodeExtractions(es []Extraction) string {
	parts := make([]any, len(es))
	for i, e := range es {
		parts[i] = []any{e.Line, e.Text}
	}
	return mustJSON(parts)
}

// refEncodeNormalizations renders normalizations in the JSON tuple format.
func refEncodeNormalizations(ns []Normalization) string {
	parts := make([]any, len(ns))
	for i, n := range ns {
		parts[i] = []any{n.Surface, n.Meta, n.Category, n.Descriptor}
	}
	return mustJSON(parts)
}

// refEncodeLabeledMentions renders labeled mentions in the JSON tuple format.
func refEncodeLabeledMentions(ms []LabeledMention) string {
	parts := make([]any, len(ms))
	for i, m := range ms {
		parts[i] = []any{m.Line, m.Group, m.Label, m.Text}
	}
	return mustJSON(parts)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Only reachable on unmarshalable types, which the encoders never
		// construct.
		panic(err)
	}
	return string(b)
}
